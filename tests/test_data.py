import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gfclust import data
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
    assert ds.n_classes is None


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
        ({"views": ["v0.csv"]}, "manifest view 0 must be a JSON object"),
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
        # Only null or no key means unlabeled; any other non-path is an error.
        *[
            (
                {"views": [{"path": "v0.csv"}], "labels": labels},
                "labels must be a path string or null",
            )
            for labels in (False, 0, 0.0, "", [], {})
        ],
        # A name, when given, is a string; null is not "no name".
        *[
            ({"views": [{"path": "v0.csv"}], "name": name}, "manifest name must be a string")
            for name in ([[1]], 5, {}, None, True)
        ],
    ],
)
def test_load_dataset_malformed_manifest(tmp_path, manifest, message):
    _manifest(tmp_path, [VIEW_A])
    path = tmp_path / "bad.json"
    _write(path, json.dumps(manifest))
    with pytest.raises(DatasetError, match=message):
        load_dataset(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "invalid manifest JSON: Expecting property name enclosed in double"
         " quotes: line 1 column 2 (char 1)"),
        ('{"views": []}', "manifest lists no views"),
    ],
)
def test_load_dataset_unusable_manifest_message(tmp_path, text, message):
    path = tmp_path / "manifest.json"
    _write(path, text)
    with pytest.raises(DatasetError) as info:
        load_dataset(path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text", ['{"views": ' + "1" * 5000 + "}", "[" * 100_000], ids=["long_int", "deep"]
)
def test_load_dataset_json_the_parser_refuses(tmp_path, text):
    # json.loads raises a plain ValueError on an integer literal of over 4300
    # digits and RecursionError on deep nesting, not a JSONDecodeError.
    path = tmp_path / "manifest.json"
    _write(path, text)
    with pytest.raises(DatasetError):
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
        pytest.param(
            "0\n1e19\n1\n0\n", r"label 1e\+19 in \S*y.csv is outside the int64 range",
            id="outside_int64",
        ),
    ],
)
def test_load_dataset_labels_csv(tmp_path, text, expected):
    path = _manifest(tmp_path, [VIEW_A], labels=[0, 0, 1, 1])
    _write(tmp_path / "y.csv", text)
    if isinstance(expected, list):
        np.testing.assert_array_equal(load_dataset(path).labels, expected)
    else:
        with pytest.raises(DatasetError, match=expected or "y.csv"):
            load_dataset(path)


def test_load_dataset_header_skipped(tmp_path):
    rows = [["a", "b"], [1.0, 2.0], [3.0, 4.0]]
    path = _manifest(tmp_path, [rows], has_header=True)
    ds = load_dataset(path)
    assert ds.views[0].shape == (2, 2)


def _load_view_bytes(folder, raw, has_header=False):
    """Load a one-view manifest whose view file holds ``raw``, with every
    warning an error, so that none can escape unseen."""
    (folder / "v0.csv").write_bytes(raw)
    manifest = folder / "manifest.json"
    _write(manifest, json.dumps({"views": [{"path": "v0.csv", "has_header": has_header}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_dataset(manifest)


ROWS_1234 = [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize(
    "raw, has_header, expected",
    [
        pytest.param(b"1,2\n   \n3,4\n", False, ROWS_1234, id="whitespace_line"),
        pytest.param(b"", False, "empty matrix file", id="empty_file"),
        pytest.param(b"\n\r\n\n", False, "empty matrix file", id="blank_only"),
        pytest.param(b" \n\t\n", False, "empty matrix file", id="whitespace_only"),
        pytest.param(b"a,b\n\n", True, "empty matrix file", id="header_only"),
        pytest.param(b"1,2\r\n3,4\r\n", False, ROWS_1234, id="crlf"),
        pytest.param(b"1,2\r3,4\r", False, ROWS_1234, id="lone_cr"),
        pytest.param(b"a,b\r1,2\r3,4", True, ROWS_1234, id="header_lone_cr"),
        pytest.param(b"a,b\n\n1,2\n3,4\n", True, ROWS_1234, id="header_then_blank"),
        pytest.param(b"\n1,2\n3,4\n", True, ROWS_1234, id="blank_header"),
        pytest.param(
            b"1,2,\n3,4,\n", False, r"non-numeric cell '' at \S+ line 1, column 3",
            id="trailing_comma",
        ),
        pytest.param(
            b"1,2\n#3,4\n", False, r"non-numeric cell '#3' at \S+ line 2, column 1", id="hash"
        ),
        pytest.param(
            b"1\t2\n3\t4\n", False, r"non-numeric cell '1\\t2' at \S+ line 1, column 1",
            id="tab_separated",
        ),
        pytest.param(b"1\t,2\n 3 , 4 \n", False, ROWS_1234, id="padded_cells"),
        pytest.param(
            b"\xef\xbb\xbf1,2\n3,4\n", False, r"non-numeric cell '\\ufeff1' at \S+ line 1",
            id="utf8_bom",
        ),
        pytest.param(b"\xef\xbb\xbfa,b\n1,2\n3,4\n", True, ROWS_1234, id="utf8_bom_header"),
        pytest.param(
            b"1,2\n3,\xe94\n", False, r"v0.csv is not UTF-8 text: invalid continuation byte",
            id="not_utf8",
        ),
        pytest.param(b"1_0,2\n3,4\n", False, [[10.0, 2.0], [3.0, 4.0]], id="underscore"),
        pytest.param(b"1,2\x0b3,4\n", False, ROWS_1234, id="vertical_tab_break"),
        # np.loadtxt alone reads these two as [[1, 2], [3, 4]]: it strips the
        # \x0b as whitespace where str.splitlines ends a line.
        pytest.param(
            b"1,\x0b2\n3,4\n", False, r"non-numeric cell '' at \S+ line 1, column 2",
            id="vertical_tab_in_row",
        ),
        pytest.param(
            b"a\x0bb\n1,2\n3,4\n", True, r"non-numeric cell 'b' at \S+ line 2, column 1",
            id="vertical_tab_in_header",
        ),
        pytest.param(b"1,2\x0c\n3,4\n", False, ROWS_1234, id="form_feed"),
        pytest.param(
            "1, 2\n3,4\n".encode(), False, r"non-numeric cell '' at \S+ line 1, column 2",
            id="line_separator",
        ),
        pytest.param("١,2\n3,4\n".encode(), False, ROWS_1234, id="arabic_indic_digit"),
        pytest.param(" 1,2\n3,4\n".encode(), False, ROWS_1234, id="no_break_space"),
        pytest.param(
            b"1\x00,2\n3,4\n", False, r"non-numeric cell '1\\x00' at \S+ line 1, column 1",
            id="nul",
        ),
        pytest.param(
            b'"1",2\n3,4\n', False, r"""non-numeric cell '"1"' at \S+ line 1, column 1""",
            id="quoted",
        ),
    ],
)
def test_view_csv_edge_cases(tmp_path, raw, has_header, expected):
    if isinstance(expected, list):
        view = _load_view_bytes(tmp_path, raw, has_header).views[0]
        assert view.tobytes() == np.asarray(expected).tobytes()
    else:
        with pytest.raises(DatasetError, match=expected):
            _load_view_bytes(tmp_path, raw, has_header)


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"a,b\n1,2\n\n3\n", r"ragged rows in \S+: line 4 has 1 cells, expected 2"),
        (b"a,b\n1,2\n\n3,x\n", r"non-numeric cell 'x' at \S+ line 4, column 2"),
    ],
    ids=["ragged", "non_numeric"],
)
def test_view_csv_errors_name_file_line_and_column(tmp_path, raw, message):
    # Lines count from 1 and include the header and blank lines.
    with pytest.raises(DatasetError, match=message):
        _load_view_bytes(tmp_path, raw, has_header=True)


def test_written_views_skip_the_per_cell_parser(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("per-cell parser called")

    ds = generate_synthetic(SyntheticSpec(k=2, n_per_cluster=3, subspace_dim=1, view_dims=(4,)))
    manifest = write_dataset(ds, tmp_path)
    monkeypatch.setattr(data, "_parse_matrix_csv", refuse)
    assert load_dataset(manifest).views[0].tobytes() == ds.views[0].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        arrays(
            np.float64,
            st.tuples(st.just(3), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=2,
    )
)
@example([np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308],
                    [-1.7e308, 1e-310]])])
def test_write_load_roundtrip_is_bitwise(tmp_path_factory, views):
    ds = MultiViewDataset(views=views, labels=np.array([0, 1, 1]))
    loaded = load_dataset(write_dataset(ds, tmp_path_factory.mktemp("roundtrip")))
    for original, reread in zip(ds.views, loaded.views):
        assert reread.tobytes() == original.tobytes()
    np.testing.assert_array_equal(loaded.labels, ds.labels)


# Bytes that some reader treats specially: line ends and the breaks only
# str.splitlines honours, separators and padding, a comment sign, numeric
# spellings, a UTF-8 BOM, NEL and LS, a lone continuation byte and NUL.
MUTATION_BYTES = [
    b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1f", b",", b" ", b"\t", b"#",
    b"_", b"e", b"-", b".", b"nan", b"inf", b"\xef\xbb\xbf", b"\xc2\x85", b"\xe2\x80\xa8",
    b"\x80", b"\x00",
]


@settings(max_examples=400, deadline=None)
@given(
    has_header=st.booleans(),
    edits=st.lists(
        st.tuples(
            st.integers(0, 200),
            st.integers(0, 2),
            st.one_of(st.sampled_from(MUTATION_BYTES), st.binary(min_size=1, max_size=2)),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_mutated_view_csv_loads_or_raises_dataset_error(tmp_path_factory, has_header, edits):
    raw = bytearray(b"a,b,c\n" if has_header else b"")
    raw += b"1.5,-2,3e-7\n0.25,1e300,-0\n7,8,9\n"
    for position, deleted, inserted in edits:
        position %= len(raw) + 1
        raw[position:position + deleted] = inserted
    folder = tmp_path_factory.mktemp("mutated")
    path = folder / "v0.csv"

    def exact():
        return MultiViewDataset(views=[data._parse_matrix_csv(path, has_header)]).views[0]

    # The same bits or the same error as the per-cell parser alone.
    outcomes = []
    for load in (lambda: _load_view_bytes(folder, bytes(raw), has_header).views[0], exact):
        try:
            outcomes.append(load().tobytes())
        except DatasetError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


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


@pytest.mark.parametrize(
    "views, labels, message",
    [
        ([], None, "dataset needs at least one view"),
        ([np.ones(3)], None, "view 0 is not a 2-D matrix"),
        ([np.ones((3, 2)), np.ones((3, 0))], None, "view 1 has no feature columns"),
        ([np.ones((3, 2))], np.array([0, -1, 1]), "labels must be 0-based class ids"),
    ],
    ids=["no_views", "1d_view", "no_columns", "negative_label"],
)
def test_dataset_rejects_malformed_views_and_labels(views, labels, message):
    with pytest.raises(DatasetError) as info:
        MultiViewDataset(views=views, labels=labels)
    assert str(info.value) == message


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
        ([0.0, 1.5, 1.0, 0.0], "non-integer label 1.5 in labels"),
        ([0.0, np.nan, 1.0, 0.0], "non-integer label nan in labels"),
        ([0.0, 1e19, 1.0, 0.0], "label 1e+19 in labels is outside the int64 range"),
    ],
    ids=["fraction", "nan", "outside_int64"],
)
def test_dataset_checks_float_labels_before_cast(labels, message):
    # Float labels are checked before the cast, which would warn on NaN or
    # on a value int64 cannot hold.
    with pytest.raises(DatasetError) as info:
        MultiViewDataset(views=[np.ones((4, 2))], labels=np.array(labels))
    assert str(info.value) == message


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


@pytest.mark.parametrize("mode", ["unit_row_norm", "zscore_columns"])
def test_normalize_matches_expression_form_and_leaves_input(mode):
    rng = np.random.default_rng(3)
    ds = MultiViewDataset(views=[rng.standard_normal((5, 3)), rng.standard_normal((5, 2)) * 1e-160])
    before = [view.tobytes() for view in ds.views]
    out = normalize_views(ds, mode)
    for view, got, raw in zip(ds.views, out.views, before):
        x = view.copy()
        if mode == "unit_row_norm":
            peak = np.abs(x).max(axis=1)
            x = x / np.where(peak > 0, peak, 1.0)[:, None]
            norms = np.linalg.norm(x, axis=1)
            expected = x / np.where(norms > 0, norms, 1.0)[:, None]
        else:
            x = x - x.mean(axis=0)
            std = x.std(axis=0)
            expected = x / np.where(std > 0, std, 1.0)
        assert got.tobytes() == expected.tobytes()
        assert view.tobytes() == raw
