import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from gfclust import metrics
from gfclust.metrics import ari, clustering_accuracy, evaluate, f_score, hungarian, nmi
from oracles import (
    brute_force_acc,
    brute_force_ari,
    brute_force_assignment,
    brute_force_f_score,
    brute_force_nmi,
)


def test_hungarian_identity_optimum():
    assignment = hungarian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(assignment, [0, 1])


def test_hungarian_prefers_swap():
    # identity costs 4+0=4, the swap 1+2=3
    assignment = hungarian(np.array([[4.0, 1.0], [2.0, 0.0]]))
    np.testing.assert_array_equal(assignment, [1, 0])


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_hungarian_matches_brute_force_random(size):
    rng = np.random.default_rng(size)
    for _ in range(15):
        cost = rng.random((size, size))
        expected, expected_total = brute_force_assignment(cost)
        got = hungarian(cost)
        total = cost[np.arange(size), got].sum()
        assert abs(total - expected_total) <= 1e-12
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_hungarian_lexicographic_ties_on_integer_costs(size):
    rng = np.random.default_rng(100 + size)
    for _ in range(15):
        cost = rng.integers(0, 3, size=(size, size)).astype(float)
        expected, _ = brute_force_assignment(cost)
        np.testing.assert_array_equal(hungarian(cost), expected)


def scipy_total(cost):
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum()


def row_by_row_assignment(cost):
    """The lexicographic tie-break rule fixed row by row: row i takes the
    smallest free column that still has an optimal completion, checked by a
    scipy solve of the remaining rows and columns."""
    k = cost.shape[0]
    best = scipy_total(cost)
    tol = 1e-9 * max(1.0, abs(best))
    assignment = np.empty(k, dtype=int)
    free_cols = list(range(k))
    fixed = 0.0
    for i in range(k):
        for j in free_cols:
            rest = [c for c in free_cols if c != j]
            completion = scipy_total(cost[np.ix_(range(i + 1, k), rest)]) if rest else 0.0
            if fixed + cost[i, j] + completion <= best + tol:
                assignment[i] = j
                fixed += cost[i, j]
                free_cols.remove(j)
                break
    return assignment


@pytest.mark.parametrize("size", [1, 2, 7, 10, 20, 40])
def test_hungarian_matches_scipy_optimum(size):
    rng = np.random.default_rng(200 + size)
    costs = [rng.random((size, size)) for _ in range(10)]
    costs += [rng.integers(0, 4, size=(size, size)).astype(float) for _ in range(10)]
    for cost in costs:
        got = hungarian(cost)
        np.testing.assert_array_equal(np.sort(got), np.arange(size))
        expected = scipy_total(cost)
        assert abs(cost[np.arange(size), got].sum() - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("size", [8, 9, 10, 11, 12])
def test_hungarian_lexicographic_ties_match_row_by_row_rule(size):
    rng = np.random.default_rng(300 + size)
    for high in (2, 3, 5):
        for _ in range(4):
            cost = rng.integers(0, high, size=(size, size)).astype(float)
            np.testing.assert_array_equal(hungarian(cost), row_by_row_assignment(cost))


def test_hungarian_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        hungarian(np.array([[0.0, np.inf], [1.0, 0.0]]))


def test_hungarian_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        hungarian(np.ones((2, 3)))


def test_accuracy_identical():
    assert clustering_accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_accuracy_relabeled():
    assert clustering_accuracy([1, 1, 0, 0], [0, 0, 1, 1]) == 1.0


def test_accuracy_half():
    assert clustering_accuracy([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5


def test_accuracy_unequal_cluster_counts():
    # three predicted clusters vs two true ones: padding keeps this well defined
    pred = [0, 1, 2, 2]
    truth = [0, 0, 1, 1]
    assert clustering_accuracy(pred, truth) == brute_force_acc(pred, truth)


@pytest.mark.parametrize("k_pred, k_true", [(7, 4), (4, 7), (12, 9)])
def test_accuracy_unequal_cluster_counts_matches_scipy(k_pred, k_true):
    # The zero-padded contingency table has all-zero rows or columns, so
    # many matchings tie; the matched count must still be the optimum.
    rng = np.random.default_rng(10 * k_pred + k_true)
    for _ in range(5):
        pred = rng.integers(0, k_pred, size=120)
        truth = rng.integers(0, k_true, size=120)
        table = np.zeros((k_pred, k_true))
        np.add.at(table, (pred, truth), 1.0)
        expected = -scipy_total(-table) / 120
        assert clustering_accuracy(pred, truth) == expected


def labels_of_table(table):
    """Label vectors whose contingency table is ``table`` (less its all-zero rows and columns)."""
    pred, truth = np.nonzero(table)
    counts = table[pred, truth]
    return np.repeat(pred, counts), np.repeat(truth, counts)


def hungarian_total(table):
    """Matched total of `hungarian`'s matching on the negated table, zero-padded to square."""
    size = max(table.shape)
    padded = np.zeros((size, size))
    padded[: table.shape[0], : table.shape[1]] = table
    return padded[np.arange(size), hungarian(-padded)].sum()


def test_accuracy_is_hungarian_matched_total_on_tied_tables():
    # Entries 0-2 give many optimal matchings; accuracy reads their shared total.
    rng = np.random.default_rng(400)
    for _ in range(60):
        table = rng.integers(0, 3, size=rng.integers(1, 13, size=2))
        if not table.any():
            continue
        pred, truth = labels_of_table(table)
        assert clustering_accuracy(pred, truth) == hungarian_total(table) / table.sum()


def test_accuracy_and_evaluate_never_call_hungarian(monkeypatch):
    def refuse(cost):
        raise AssertionError("hungarian called")

    monkeypatch.setattr(metrics, "hungarian", refuse)
    pred, truth = [0, 0, 1, 1, 2, 2, 3], [1, 1, 0, 2, 2, 0, 0]
    assert clustering_accuracy(pred, truth) == evaluate(pred, truth).acc == brute_force_acc(pred, truth)


def test_evaluate_builds_the_table_once(monkeypatch):
    calls = []
    contingency = metrics._contingency
    monkeypatch.setattr(metrics, "_contingency", lambda *labels: calls.append(1) or contingency(*labels))
    report = evaluate([0, 0, 1, 1, 2], [1, 1, 0, 2, 2])
    assert len(calls) == 1
    assert (report.n, report.k_pred, report.k_true) == (5, 3, 3)


def test_nmi_identical_partitions():
    assert nmi([0, 1, 0, 1], [1, 0, 1, 0]) == pytest.approx(1.0)
    # Unclipped, rounding put this one at 1.0000000000000004.
    y = np.repeat(np.arange(3), 100)
    assert nmi(y, y) == pytest.approx(1.0)
    assert nmi(y, y) <= 1.0


def test_nmi_independent_partitions():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)


def test_nmi_hand_contingency_value():
    # joint counts [[2,1],[0,1]] over 4 samples, natural logs
    pred = [0, 0, 0, 1]
    truth = [0, 0, 1, 1]
    h_pred = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    h_truth = -(0.5 * math.log(0.5) * 2)
    mi = (
        0.5 * math.log(0.5 / (0.75 * 0.5))
        + 0.25 * math.log(0.25 / (0.75 * 0.5))
        + 0.25 * math.log(0.25 / (0.25 * 0.5))
    )
    assert nmi(pred, truth) == pytest.approx(mi / math.sqrt(h_pred * h_truth), abs=1e-12)


def test_nmi_single_cluster_conventions():
    assert nmi([0, 0, 0], [0, 0, 0]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 1]) == 0.0
    assert nmi([0, 1, 1], [0, 0, 0]) == 0.0


def test_ari_identical_and_relabeled():
    assert ari([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)
    assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)


def test_ari_pair_enumeration_value():
    pred = [0, 0, 1, 1]
    truth = [0, 1, 0, 1]
    assert ari(pred, truth) == pytest.approx(brute_force_ari(pred, truth), abs=1e-12)


def test_ari_degenerate_conventions():
    assert ari([0, 1, 2], [2, 0, 1]) == 1.0  # both all singletons
    assert ari([0, 0, 0], [0, 0, 0]) == 1.0  # both single cluster
    assert ari([0, 1, 2], [0, 0, 0]) == 0.0


def test_f_score_identical():
    assert f_score([0, 0, 1], [1, 1, 0]) == 1.0


def test_f_score_singletons_vs_pairs():
    assert f_score([0, 1, 2, 3], [0, 0, 1, 1]) == 0.0


def test_f_score_hand_pairs():
    # pred pairs {01,02,12}, truth pairs {01,23}: P=1/3, R=1/2, F=0.4
    assert f_score([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.4, abs=1e-15)


def test_f_score_both_all_singletons():
    assert f_score([0, 1, 2], [2, 1, 0]) == 1.0


def test_length_mismatch_raises():
    for metric in (clustering_accuracy, nmi, ari, f_score):
        with pytest.raises(ValueError, match="length mismatch"):
            metric([0, 1], [0, 1, 2])
        with pytest.raises(ValueError, match="labels must be 1-D"):
            metric([[0, 1]], [0, 1])


def test_empty_labels_raise():
    with pytest.raises(ValueError, match="non-empty"):
        nmi([], [])


def test_evaluate_report_fields():
    report = evaluate([0, 0, 1, 1], [0, 0, 1, 2])
    assert report.n == 4
    assert report.k_pred == 2
    assert report.k_true == 3
    assert 0.0 <= report.acc <= 1.0
    assert 0.0 <= report.nmi <= 1.0
    assert -1.0 <= report.ari <= 1.0
    assert 0.0 <= report.f_score <= 1.0


labels_strategy = st.lists(st.integers(0, 3), min_size=2, max_size=12)


@settings(max_examples=60, deadline=None)
@given(labels_strategy, st.permutations(list(range(4))), st.permutations(list(range(4))))
def test_metrics_invariant_under_relabeling(raw, perm_pred, perm_truth):
    pred = raw
    truth = raw[::-1]
    pred_relabeled = [perm_pred[p] for p in pred]
    truth_relabeled = [perm_truth[t] for t in truth]
    for metric in (clustering_accuracy, nmi, ari, f_score):
        assert metric(pred, truth) == pytest.approx(
            metric(pred_relabeled, truth_relabeled), abs=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(labels_strategy)
def test_accuracy_symmetric_for_equal_cluster_counts(raw):
    pred = np.asarray(raw)
    truth = np.asarray(raw[::-1])
    if len(np.unique(pred)) == len(np.unique(truth)):
        assert clustering_accuracy(pred, truth) == pytest.approx(
            clustering_accuracy(truth, pred), abs=1e-12
        )


@settings(max_examples=50, deadline=None)
@given(labels_strategy)
def test_metrics_match_brute_force_on_random_labels(raw):
    pred = raw
    truth = raw[::-1]
    assert clustering_accuracy(pred, truth) == pytest.approx(
        brute_force_acc(pred, truth), abs=1e-12
    )
    assert nmi(pred, truth) == pytest.approx(brute_force_nmi(pred, truth), abs=1e-12)
    assert ari(pred, truth) == pytest.approx(brute_force_ari(pred, truth), abs=1e-12)
    assert f_score(pred, truth) == pytest.approx(brute_force_f_score(pred, truth), abs=1e-12)
