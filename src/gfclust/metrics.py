"""External clustering metrics: accuracy under optimal label matching,
normalized mutual information, adjusted Rand index, and pairwise F-score.

Conventions (documented because the literature varies):

* NMI normalizes mutual information by the geometric mean of the two
  entropies, with natural logarithms.
* The F-score is the pairwise variant: precision and recall are computed
  over same-cluster sample pairs.
* Accuracy matches predicted to true clusters by a minimum-cost assignment
  on the negated contingency table, zero-padded to square. The assignment
  solver is in this module (shortest augmenting paths, Jonker-Volgenant as
  laid out by Crouse 2016), so no gfclust process imports scipy.optimize,
  which would add about 0.3 s and 20 MB to every start. Ties between
  optimal matchings go to the lexicographically smallest one, found from
  the solve's dual potentials.
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


def _as_labels(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.ndim != 1 or truth.ndim != 1:
        raise ValueError("labels must be 1-D")
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"length mismatch: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] == 0:
        raise ValueError("labels must be non-empty")
    _, pred = np.unique(pred, return_inverse=True)
    _, truth = np.unique(truth, return_inverse=True)
    return pred, truth


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    kp = pred.max() + 1
    kt = truth.max() + 1
    table = np.zeros((kp, kt), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    return table


def _clamp(score: float) -> float:
    return float(min(max(score, 0.0), 1.0))


def clustering_accuracy(pred, truth) -> float:
    """Fraction of samples matched under the best cluster-label bijection."""
    pred, truth = _as_labels(pred, truth)
    table = _contingency(pred, truth)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    assignment = hungarian(-padded.astype(float))
    matched = padded[np.arange(size), assignment].sum()
    return float(matched / pred.shape[0])


def nmi(pred, truth) -> float:
    """Mutual information normalized by sqrt(H(pred) * H(truth)).

    Defined as 1.0 when both partitions are the same single cluster, 0.0 when
    exactly one side has zero entropy. Entropies and mutual information are
    computed from the integer contingency counts so the degenerate cases are
    detected exactly.
    """
    pred, truth = _as_labels(pred, truth)
    n = pred.shape[0]
    table = _contingency(pred, truth)
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
    return _clamp(mi / np.sqrt(entropy(counts_pred) * entropy(counts_truth)))


def _pair_counts(pred: np.ndarray, truth: np.ndarray):
    """Same-cluster pair counts as exact integers: (both, pred-only base, truth-only base)."""
    table = _contingency(pred, truth)

    def pairs(counts) -> int:
        return int(sum(int(c) * (int(c) - 1) // 2 for c in np.ravel(counts)))

    return pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))


def ari(pred, truth) -> float:
    """Pair-counting adjusted Rand index.

    Defined as 1.0 when the chance-adjusted denominator vanishes, which
    happens exactly when both partitions are all singletons or both are a
    single cluster.
    """
    pred, truth = _as_labels(pred, truth)
    n = pred.shape[0]
    both, in_pred, in_truth = _pair_counts(pred, truth)
    total = n * (n - 1) // 2
    expected = in_pred * in_truth / total if total else 0.0
    maximum = 0.5 * (in_pred + in_truth)
    if maximum == expected:
        return 1.0
    return float(min((both - expected) / (maximum - expected), 1.0))


def f_score(pred, truth) -> float:
    """Harmonic mean of pairwise precision and recall over same-cluster pairs.

    When one side has no same-cluster pairs the score is 0; when neither side
    has any (both all singletons) the partitions coincide and the score is 1.
    """
    pred, truth = _as_labels(pred, truth)
    both, in_pred, in_truth = _pair_counts(pred, truth)
    if in_pred == 0 and in_truth == 0:
        return 1.0
    if in_pred == 0 or in_truth == 0:
        return 0.0
    precision = both / in_pred
    recall = both / in_truth
    if precision + recall == 0.0:
        return 0.0
    return _clamp(2.0 * precision * recall / (precision + recall))


def evaluate(pred, truth) -> EvaluationReport:
    """All four metrics plus partition sizes in one report."""
    pred_ids, truth_ids = _as_labels(pred, truth)
    return EvaluationReport(
        acc=clustering_accuracy(pred, truth),
        nmi=nmi(pred, truth),
        ari=ari(pred, truth),
        f_score=f_score(pred, truth),
        n=int(pred_ids.shape[0]),
        k_pred=int(pred_ids.max()) + 1,
        k_true=int(truth_ids.max()) + 1,
    )
