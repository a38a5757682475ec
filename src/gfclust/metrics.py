"""External clustering metrics: accuracy under optimal label matching,
normalized mutual information, adjusted Rand index, and pairwise F-score.

Conventions (documented because the literature varies):

* NMI normalizes mutual information by the geometric mean of the two
  entropies, with natural logarithms.
* The F-score is the pairwise variant: precision and recall are computed
  over same-cluster sample pairs.
* Accuracy is the optimum of a minimum-cost assignment on the negated
  contingency table, zero-padded to square: the matched total, which every
  optimal matching shares, so it needs no tie-break. The assignment solver is
  in this module (shortest augmenting paths, Jonker-Volgenant as laid out by
  Crouse 2016), so no gfclust process imports scipy.optimize, which would
  add about 0.3 s and 20 MB to every start. The lexicographic tie-break
  between optimal matchings belongs to `hungarian`, which returns a matching.
* All four scores are read from one int64 contingency table.
* NMI and the F-score are clipped to [0, 1] and ARI to at most 1: rounding
  can put a perfect match a few ulps past 1 (NMI read 1.0000000000000004 on
  three equal clusters of 100 samples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EvaluationReport:
    acc: float
    nmi: float
    ari: float
    f_score: float
    n: int
    k_pred: int
    k_true: int


def _shortest_augmenting_path(cost: np.ndarray):
    """Minimum-cost assignment of a square cost matrix with its dual potentials.

    The shortest augmenting path method of Jonker and Volgenant, laid out as
    in Crouse (IEEE TAES, 2016): each row in turn is matched through a
    Dijkstra search over reduced costs, then the potentials are updated so
    that ``cost - u[:, None] - v[None, :]`` stays nonnegative and is zero on
    every matched edge. Returns (column per row, u, v).
    """
    k = cost.shape[0]
    u = np.zeros(k)
    v = np.zeros(k)
    col4row = np.full(k, -1)
    row4col = np.full(k, -1)
    for cur_row in range(k):
        shortest = np.full(k, np.inf)
        path = np.full(k, -1)
        seen_rows = np.zeros(k, dtype=bool)
        seen_cols = np.zeros(k, dtype=bool)
        min_val = 0.0
        i = cur_row
        while True:
            seen_rows[i] = True
            reduced = min_val + cost[i] - u[i] - v
            better = ~seen_cols & (reduced < shortest)
            path[better] = i
            shortest[better] = reduced[better]
            open_cols = np.flatnonzero(~seen_cols)
            j = open_cols[np.argmin(shortest[open_cols])]
            min_val = shortest[j]
            seen_cols[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        others = seen_rows.copy()
        others[cur_row] = False
        u[cur_row] += min_val
        u[others] += min_val - shortest[col4row[others]]
        v[seen_cols] -= min_val - shortest[seen_cols]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row, u, v


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of rows to columns of a square cost matrix.

    Returns the assigned column index per row. Among minimum-cost
    assignments, the lexicographically smallest one (viewed as the vector of
    column indices) is returned. The minimum-cost assignments are exactly the
    perfect matchings on the edges of zero reduced cost under the optimal
    dual potentials (taken as reduced cost <= 1e-9 max(1, |optimum|), which
    is exact on integer costs), so the tie-break needs no further solve: row
    by row, the smallest such column is taken whenever the rows below can be
    re-matched around it along an alternating path.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    k = cost.shape[0]
    col4row, u, v = _shortest_augmenting_path(cost)
    best = float(cost[np.arange(k), col4row].sum())
    tight = cost - u[:, None] - v[None, :] <= 1e-9 * max(1.0, abs(best))
    tight[np.arange(k), col4row] = True  # zero reduced cost, whatever the rounding of u, v
    row4col = np.argsort(col4row)

    def rematch(row, fixed, seen):
        # Kuhn's augmenting path from `row` over tight edges, avoiding the
        # columns held by rows <= fixed; a free column (-1) ends the path.
        for col in np.flatnonzero(tight[row]):
            if col in seen or 0 <= row4col[col] <= fixed:
                continue
            seen.add(col)
            if row4col[col] < 0 or rematch(row4col[col], fixed, seen):
                row4col[col], col4row[row] = row, col
                return True
        return False

    for i in range(k):
        for j in np.flatnonzero(tight[i]):
            if j == col4row[i]:
                break
            if row4col[j] < i:
                continue
            held = col4row[i]
            row4col[held] = -1
            if rematch(row4col[j], i, {j}):
                row4col[j], col4row[i] = i, j
                break
            row4col[held] = i
    return col4row


def _contingency(pred, truth) -> np.ndarray:
    """The int64 contingency table of two label vectors: one row per distinct
    predicted label, one column per distinct true label, each in sorted order."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.ndim != 1 or truth.ndim != 1:
        raise ValueError("labels must be 1-D")
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"length mismatch: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] == 0:
        raise ValueError("labels must be non-empty")
    pred_values, pred = np.unique(pred, return_inverse=True)
    truth_values, truth = np.unique(truth, return_inverse=True)
    kp, kt = pred_values.size, truth_values.size
    return np.bincount(pred * kt + truth, minlength=kp * kt).astype(np.int64, copy=False).reshape(kp, kt)


def _pair_counts(table: np.ndarray):
    """Same-cluster pair counts as exact integers: (both, pred-only base, truth-only base)."""
    return tuple(int(np.sum(c * (c - 1) // 2)) for c in (table, table.sum(axis=1), table.sum(axis=0)))


def _accuracy(table: np.ndarray) -> float:
    size = max(table.shape)
    padded = np.pad(table, [(0, size - table.shape[0]), (0, size - table.shape[1])])
    col4row = _shortest_augmenting_path(-padded)[0]
    return float(padded[np.arange(size), col4row].sum() / table.sum())


def _nmi(table: np.ndarray) -> float:
    n = int(table.sum())
    counts_pred = table.sum(axis=1)
    counts_truth = table.sum(axis=0)
    if counts_pred.size == 1 and counts_truth.size == 1:
        return 1.0
    if counts_pred.size == 1 or counts_truth.size == 1:
        return 0.0

    def entropy(counts) -> float:
        return np.log(n) - float(np.sum(counts * np.log(counts))) / n

    rows, cols = np.nonzero(table)
    c = table[rows, cols]
    mi = float(np.sum((c / n) * np.log(n * c / (counts_pred[rows] * counts_truth[cols]))))
    return float(min(max(mi / np.sqrt(entropy(counts_pred) * entropy(counts_truth)), 0.0), 1.0))


def _ari(table: np.ndarray) -> float:
    n = int(table.sum())
    both, in_pred, in_truth = _pair_counts(table)
    total = n * (n - 1) // 2
    expected = in_pred * in_truth / total if total else 0.0
    maximum = 0.5 * (in_pred + in_truth)
    if maximum == expected:
        return 1.0
    return float(min((both - expected) / (maximum - expected), 1.0))


def _f_score(table: np.ndarray) -> float:
    both, in_pred, in_truth = _pair_counts(table)
    if in_pred == 0 and in_truth == 0:
        return 1.0
    if in_pred == 0 or in_truth == 0:
        return 0.0
    precision = both / in_pred
    recall = both / in_truth
    if precision + recall == 0.0:
        return 0.0
    return float(min(2.0 * precision * recall / (precision + recall), 1.0))


def clustering_accuracy(pred, truth) -> float:
    """Fraction of samples matched under the best cluster-label bijection."""
    return _accuracy(_contingency(pred, truth))


def nmi(pred, truth) -> float:
    """Mutual information normalized by sqrt(H(pred) * H(truth)).

    Defined as 1.0 when both partitions are the same single cluster, 0.0 when
    exactly one side has zero entropy. Entropies and mutual information are
    computed from the integer contingency counts so the degenerate cases are
    detected exactly.
    """
    return _nmi(_contingency(pred, truth))


def ari(pred, truth) -> float:
    """Pair-counting adjusted Rand index.

    Defined as 1.0 when the chance-adjusted denominator vanishes, which
    happens exactly when both partitions are all singletons or both are a
    single cluster.
    """
    return _ari(_contingency(pred, truth))


def f_score(pred, truth) -> float:
    """Harmonic mean of pairwise precision and recall over same-cluster pairs.

    When one side has no same-cluster pairs the score is 0; when neither side
    has any (both all singletons) the partitions coincide and the score is 1.
    """
    return _f_score(_contingency(pred, truth))


def evaluate(pred, truth) -> EvaluationReport:
    """All four metrics plus partition sizes in one report, from one contingency table."""
    table = _contingency(pred, truth)
    return EvaluationReport(
        acc=_accuracy(table),
        nmi=_nmi(table),
        ari=_ari(table),
        f_score=_f_score(table),
        n=int(table.sum()),
        k_pred=table.shape[0],
        k_true=table.shape[1],
    )
