import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfclust.data import (
    DatasetError,
    MultiViewDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    normalize_views,
    write_dataset,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def _manifest(tmp_path, views, labels=None, has_header=False, name="toy"):
    entries = []
    for idx, rows in enumerate(views):
        fname = f"v{idx}.csv"
        _write(tmp_path / fname, "\n".join(",".join(str(x) for x in row) for row in rows))
        entries.append({"path": fname, "has_header": has_header})
    manifest = {"views": entries, "labels": None, "name": name}
    if labels is not None:
        _write(tmp_path / "y.csv", "\n".join(str(int(x)) for x in labels))
        manifest["labels"] = "y.csv"
    path = tmp_path / "manifest.json"
    _write(path, json.dumps(manifest))
    return path


VIEW_A = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0], [1.5, 2.5, 3.5]]
VIEW_B = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]


def test_load_dataset_direct_readback(tmp_path):
    path = _manifest(tmp_path, [VIEW_A, VIEW_B], labels=[0, 0, 1, 1])
    ds = load_dataset(path)
    assert ds.n_samples == 4
    assert ds.n_views == 2
    assert ds.views[0].shape == (4, 3)
    assert ds.views[1].shape == (4, 2)
    np.testing.assert_array_equal(ds.views[0], np.asarray(VIEW_A))
    np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1])


def test_load_dataset_row_count_mismatch(tmp_path):
    path = _manifest(tmp_path, [VIEW_A, VIEW_B + [[0.9, 1.0]]])
    with pytest.raises(DatasetError, match="row-count mismatch"):
        load_dataset(path)


def test_load_dataset_without_labels(tmp_path):
    path = _manifest(tmp_path, [VIEW_A, VIEW_B])
    ds = load_dataset(path)
    assert ds.labels is None


def test_load_dataset_missing_view_file(tmp_path):
    path = _manifest(tmp_path, [VIEW_A])
    (tmp_path / "v0.csv").unlink()
    with pytest.raises(DatasetError, match="not found"):
        load_dataset(path)


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(DatasetError, match="manifest not found"):
        load_dataset(tmp_path / "nope.json")


@pytest.mark.parametrize(
    "manifest, message",
    [
        ([], "JSON object"),
        ({"views": [{"has_header": False}]}, "view 0 needs a 'path'"),
        ({"views": ["v0.csv"]}, "view 0 needs a 'path'"),
        ({"views": [{"path": "v0.csv"}], "labels": 3}, "labels must be a path"),
        (
            {"views": [{"path": "v0.csv"}], "label": "y.csv"},
            r"unknown manifest keys \['label'\]; known: \['labels', 'name', 'views'\]",
        ),
        (
            {"views": [{"path": "v0.csv", "has_headr": True}]},
            r"unknown manifest view 0 keys \['has_headr'\]; known: \['has_header', 'path'\]",
        ),
        (
            {"views": [{"path": "v0.csv", "has_header": "false"}]},
            "view 0 has_header must be true or false, got 'false'",
        ),
    ],
)
def test_load_dataset_malformed_manifest(tmp_path, manifest, message):
    _manifest(tmp_path, [VIEW_A])
    path = tmp_path / "bad.json"
    _write(path, json.dumps(manifest))
    with pytest.raises(DatasetError, match=message):
        load_dataset(path)


def test_load_dataset_ragged_rows(tmp_path):
    path = _manifest(tmp_path, [[[1.0, 2.0], [3.0]]])
    with pytest.raises(DatasetError, match="ragged"):
        load_dataset(path)


def test_load_dataset_non_numeric_cell(tmp_path):
    path = _manifest(tmp_path, [[[1.0, 2.0], [3.0, "oops"]]])
    with pytest.raises(DatasetError, match="non-numeric"):
        load_dataset(path)


def test_load_dataset_labels_length_mismatch(tmp_path):
    path = _manifest(tmp_path, [VIEW_A], labels=[0, 1, 0])
    with pytest.raises(DatasetError, match="labels length"):
        load_dataset(path)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0\n1\nx\n1\n", None),
        ("0\n1.5\n1\n0\n", None),
        ("0,1\n1,0\n0,1\n1,0\n", None),
        ("0\n1\n\n2\n3.0\n", [0, 1, 2, 3]),
    ],
)
def test_load_dataset_labels_csv(tmp_path, text, expected):
    path = _manifest(tmp_path, [VIEW_A], labels=[0, 0, 1, 1])
    _write(tmp_path / "y.csv", text)
    if expected is None:
        with pytest.raises(DatasetError, match="y.csv"):
            load_dataset(path)
    else:
        np.testing.assert_array_equal(load_dataset(path).labels, expected)


def test_load_dataset_header_skipped(tmp_path):
    rows = [["a", "b"], [1.0, 2.0], [3.0, 4.0]]
    path = _manifest(tmp_path, [rows], has_header=True)
    ds = load_dataset(path)
    assert ds.views[0].shape == (2, 2)


def test_write_load_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    ds = MultiViewDataset(
        views=[rng.standard_normal((6, 4)), rng.standard_normal((6, 3)) * 1e-7],
        labels=np.array([0, 0, 1, 1, 2, 2]),
    )
    manifest = write_dataset(ds, tmp_path / "out")
    loaded = load_dataset(manifest)
    for original, reread in zip(ds.views, loaded.views):
        np.testing.assert_allclose(reread, original, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(loaded.labels, ds.labels)


def test_dataset_rejects_nan():
    bad = np.ones((3, 2))
    bad[1, 1] = np.nan
    with pytest.raises(DatasetError, match="NaN"):
        MultiViewDataset(views=[bad])


def test_dataset_rejects_single_sample():
    with pytest.raises(DatasetError, match="two samples"):
        MultiViewDataset(views=[np.ones((1, 3))])


def test_dataset_rejects_missing_class_id():
    with pytest.raises(DatasetError) as info:
        MultiViewDataset(views=[np.ones((4, 2))], labels=np.array([0, 0, 2, 2]))
    assert str(info.value) == "class ids [1] never appear in labels"


@pytest.mark.parametrize(
    "labels, message",
    [
        ([4, 4, 0, 1], "class ids [2, 3] never appear in labels"),
        (
            [0, 1, 2**62],
            "class ids [2, 3, 4, 5, 6, ...] (4611686018427387902 in all) never appear in labels",
        ),
    ],
    ids=["unsorted", "huge_id"],
)
def test_dataset_reports_missing_class_ids(labels, message):
    with pytest.raises(DatasetError) as info:
        MultiViewDataset(views=[np.ones((len(labels), 2))], labels=np.array(labels))
    assert str(info.value) == message


def test_dataset_views_are_immutable():
    ds = MultiViewDataset(views=[np.ones((3, 2))])
    with pytest.raises(ValueError):
        ds.views[0][0, 0] = 5.0


def test_generate_synthetic_shapes_labels():
    spec = SyntheticSpec(k=3, n_per_cluster=30, subspace_dim=3, view_dims=(20, 30),
                         noise_sigma=0.01, seed=7)
    ds = generate_synthetic(spec)
    assert ds.n_samples == 90
    assert ds.n_views == 2
    assert ds.views[0].shape == (90, 20)
    assert ds.views[1].shape == (90, 30)
    counts = np.bincount(ds.labels)
    np.testing.assert_array_equal(counts, [30, 30, 30])


def test_generate_synthetic_deterministic():
    spec = SyntheticSpec(k=3, n_per_cluster=5, subspace_dim=2, view_dims=(6, 8),
                         noise_sigma=0.3, seed=123)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for va, vb in zip(a.views, b.views):
        np.testing.assert_array_equal(va, vb)
    np.testing.assert_array_equal(a.labels, b.labels)


def _subspace_residual(block, dim):
    # residual of projecting the block onto its best rank-`dim` row space
    _, _, vt = np.linalg.svd(block, full_matrices=False)
    basis = vt[:dim]
    return np.abs(block - block @ basis.T @ basis).max()


def test_generate_synthetic_zero_noise_lies_in_subspaces():
    spec = SyntheticSpec(k=3, n_per_cluster=10, subspace_dim=2, view_dims=(7, 9),
                         noise_sigma=0.0, seed=5)
    ds = generate_synthetic(spec)
    for view in ds.views:
        for cluster in range(spec.k):
            block = view[ds.labels == cluster]
            assert _subspace_residual(block, spec.subspace_dim) <= 1e-10


def test_generate_synthetic_membership_survives_shuffling():
    spec = SyntheticSpec(k=2, n_per_cluster=8, subspace_dim=2, view_dims=(6,),
                         noise_sigma=0.0, seed=3)
    ds = generate_synthetic(spec)
    perm = np.random.default_rng(0).permutation(ds.n_samples)
    shuffled = MultiViewDataset(views=[v[perm] for v in ds.views], labels=ds.labels[perm])
    for cluster in range(spec.k):
        block = shuffled.views[0][shuffled.labels == cluster]
        assert _subspace_residual(block, spec.subspace_dim) <= 1e-10


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=1, n_per_cluster=5, subspace_dim=2, view_dims=(6,)),
        dict(k=2, n_per_cluster=0, subspace_dim=2, view_dims=(6,)),
        dict(k=2, n_per_cluster=5, subspace_dim=0, view_dims=(6,)),
        dict(k=2, n_per_cluster=5, subspace_dim=6, view_dims=(6,)),
        dict(k=2, n_per_cluster=5, subspace_dim=2, view_dims=()),
        dict(k=2, n_per_cluster=5, subspace_dim=2, view_dims=(6,), noise_sigma=-0.1),
        dict(k=2.5, n_per_cluster=5, subspace_dim=2, view_dims=(6,)),
        dict(k=2, n_per_cluster=5, subspace_dim=True, view_dims=(6,)),
        dict(k=2, n_per_cluster=2.5, subspace_dim=2, view_dims=(6,)),
        dict(k=2, n_per_cluster=5, subspace_dim=2, view_dims=(20.7,)),
        dict(k=2, n_per_cluster=5, subspace_dim=2, view_dims=(6,), noise_sigma=float("nan")),
        dict(k=2, n_per_cluster=5, subspace_dim=2, view_dims=(6,), seed=-1),
    ],
)
def test_synthetic_spec_validation(kwargs):
    with pytest.raises(DatasetError):
        SyntheticSpec(**kwargs)


def test_normalize_none_is_identity():
    ds = MultiViewDataset(views=[np.arange(6.0).reshape(3, 2)])
    assert normalize_views(ds, "none") is ds


def test_normalize_unit_row_norm_345():
    ds = MultiViewDataset(views=[np.array([[3.0, 4.0], [0.0, 0.0]])])
    out = normalize_views(ds, "unit_row_norm")
    np.testing.assert_allclose(out.views[0][0], [0.6, 0.8], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(out.views[0][1], [0.0, 0.0])


def test_normalize_zscore_population_std():
    ds = MultiViewDataset(views=[np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])])
    out = normalize_views(ds, "zscore_columns")
    expected = 1.0 / np.sqrt(2.0 / 3.0)  # population std of (1,2,3) is sqrt(2/3)
    np.testing.assert_allclose(out.views[0][:, 0], [-expected, 0.0, expected], atol=1e-12)
    # zero-variance column is centered only
    np.testing.assert_array_equal(out.views[0][:, 1], [0.0, 0.0, 0.0])


def test_normalize_unknown_mode():
    ds = MultiViewDataset(views=[np.ones((2, 2))])
    with pytest.raises(DatasetError, match="unknown normalization"):
        normalize_views(ds, "whiten")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3),
        min_size=2,
        max_size=8,
    )
)
@example(rows=[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0985555399091895e-157]])
def test_unit_row_norm_property(rows):
    ds = MultiViewDataset(views=[np.asarray(rows)])
    out = normalize_views(ds, "unit_row_norm")
    norms = np.linalg.norm(out.views[0], axis=1)
    for norm in norms:
        assert norm == 0.0 or abs(norm - 1.0) <= 1e-12
