"""Multi-view dataset loading, synthesis, and normalization.

A multi-view dataset is a list of per-view feature matrices that share the
same row order (one row per sample) plus an optional ground-truth label
vector. Datasets are immutable after construction so that concurrent solver
runs can share them read-only.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Raised when dataset contents violate structural requirements."""


NORMALIZATION_MODES = ("none", "unit_row_norm", "zscore_columns")

# The keys of a dataset manifest and of each of its view entries.
MANIFEST_KEYS = ("views", "labels", "name")
VIEW_KEYS = ("path", "has_header")


def is_int(value) -> bool:
    """True for a Python or numpy integer; bools and floats are not integers."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_field_types(obj, error: type[Exception]) -> None:
    """Raise ``error`` unless every ``int`` field of the dataclass ``obj``
    holds an integer and every ``float`` field a finite number; a bool is
    neither. Field types are read as the strings that postponed annotations
    make them."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and not is_int(value):
            raise error(f"{f.name} must be an integer, got {value!r}")
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if f.type == "float" and not (number and math.isfinite(value)):
            raise error(f"{f.name} must be a finite number, got {value!r}")


def check_known_keys(raw: dict, known, what: str, error: type[Exception]) -> None:
    """Raise ``error`` listing the keys of ``raw`` that are not in ``known``."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise error(f"unknown {what} keys {unknown}; known: {sorted(known)}")


def read_text(path: Path, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``; ``error`` naming the file if it does not decode."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _missing_ids(present: np.ndarray, shown: int = 5) -> str:
    """The first ``shown`` ids in [0, max] absent from the sorted distinct
    ids ``present``, as plain ints, with the total count if there are more."""
    lows = np.concatenate(([0], present[:-1] + 1))
    missing = []
    for j in np.flatnonzero(lows < present)[:shown]:
        missing += range(int(lows[j]), min(int(present[j]), int(lows[j]) + shown))
    count = int(present[-1]) + 1 - present.size
    if count <= shown:
        return str(missing)
    return f"[{', '.join(map(str, missing[:shown]))}, ...] ({count} in all)"


def _integral_labels(labels, source: str) -> np.ndarray:
    """Float ``labels`` as ints; a value that is not integral or that int64
    cannot hold is a DatasetError naming ``source``."""
    labels = np.asarray(labels, dtype=float)
    integral = np.isfinite(labels) & (labels == np.round(labels))
    if not integral.all():
        raise DatasetError(f"non-integer label {labels[~integral][0]:g} in {source}")
    outside = (labels < -(2.0**63)) | (labels >= 2.0**63)  # int64 holds [-2^63, 2^63)
    if outside.any():
        raise DatasetError(f"label {labels[outside][0]:g} in {source} is outside the int64 range")
    return labels.astype(int)


@dataclass(frozen=True)
class MultiViewDataset:
    """Per-view feature matrices (n x d_i each) with optional 0-based labels."""

    views: list[np.ndarray]
    labels: np.ndarray | None = None

    def __post_init__(self):
        if not self.views:
            raise DatasetError("dataset needs at least one view")
        views = []
        for idx, view in enumerate(self.views):
            arr = np.array(view, dtype=float, order="C")  # the dataset's own copy
            if arr.ndim != 2:
                raise DatasetError(f"view {idx} is not a 2-D matrix")
            if arr.shape[1] < 1:
                raise DatasetError(f"view {idx} has no feature columns")
            if not np.all(np.isfinite(arr)):
                raise DatasetError(f"view {idx} contains NaN or Inf entries")
            arr.flags.writeable = False
            views.append(arr)
        n = views[0].shape[0]
        if n < 2:
            raise DatasetError("dataset needs at least two samples")
        for idx, view in enumerate(views):
            if view.shape[0] != n:
                raise DatasetError(
                    f"row-count mismatch: view 0 has {n} rows, view {idx} has {view.shape[0]}"
                )
        object.__setattr__(self, "views", views)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.ndim != 1 or labels.shape[0] != n:
                raise DatasetError(
                    f"labels length {labels.shape[0] if labels.ndim == 1 else labels.shape} "
                    f"does not match sample count {n}"
                )
            if not np.issubdtype(labels.dtype, np.integer):
                labels = _integral_labels(labels, "labels")
            if labels.min() < 0:
                raise DatasetError("labels must be 0-based class ids")
            present = np.unique(labels)
            if present.size != int(present[-1]) + 1:
                raise DatasetError(f"class ids {_missing_ids(present)} never appear in labels")
            labels = labels.copy()
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_classes(self) -> int | None:
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a union-of-subspaces synthetic multi-view dataset."""

    k: int
    n_per_cluster: int
    subspace_dim: int
    view_dims: tuple[int, ...]
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, DatasetError)
        if not all(is_int(d) for d in self.view_dims):
            raise DatasetError(f"view_dims must be integers, got {list(self.view_dims)!r}")
        object.__setattr__(self, "view_dims", tuple(int(d) for d in self.view_dims))
        if self.k < 2:
            raise DatasetError("need at least two clusters")
        if self.n_per_cluster < 1:
            raise DatasetError("need at least one sample per cluster")
        if self.subspace_dim < 1:
            raise DatasetError("subspace dimension must be positive")
        if not self.view_dims:
            raise DatasetError("need at least one view dimension")
        if any(d <= self.subspace_dim for d in self.view_dims):
            raise DatasetError("each view dimension must exceed the subspace dimension")
        if self.noise_sigma < 0:
            raise DatasetError("noise sigma must be nonnegative")
        if self.seed < 0:
            raise DatasetError("seed must be nonnegative")


def generate_synthetic(spec: SyntheticSpec) -> MultiViewDataset:
    """Sample a union-of-subspaces dataset, one random subspace per cluster per view.

    Cluster j in each view occupies a random `subspace_dim`-dimensional linear
    subspace (orthonormal basis from the QR of a Gaussian matrix); samples are
    uniform [-1, 1] mixtures of the basis plus isotropic Gaussian noise.
    Deterministic for a fixed spec, including its seed.
    """
    rng = np.random.default_rng(spec.seed)
    views = []
    for dim in spec.view_dims:
        blocks = []
        for _ in range(spec.k):
            basis, _ = np.linalg.qr(rng.standard_normal((dim, spec.subspace_dim)))
            coeffs = rng.uniform(-1.0, 1.0, size=(spec.n_per_cluster, spec.subspace_dim))
            noise = spec.noise_sigma * rng.standard_normal((spec.n_per_cluster, dim))
            blocks.append(coeffs @ basis.T + noise)
        views.append(np.vstack(blocks))
    labels = np.repeat(np.arange(spec.k), spec.n_per_cluster)
    return MultiViewDataset(views=views, labels=labels)


def synthetic_peak_bytes(spec: SyntheticSpec) -> int:
    """Estimated peak bytes ``generate_synthetic(spec)`` allocates for
    n = k n_per_cluster samples, subspace dimension s and view dims d_i:
    8 [6 s max_i d_i + 4 n sum_i d_i].

    A basis draw and its QR hold about six d_i x s arrays at once, and the
    views' blocks, their stacks and the dataset's frozen copies about four
    n x d_i arrays per view. Fitted with tracemalloc at 12 specs from
    n = 2 to n = 2000 and s up to d_i - 1: it bounds each from above, the
    closest by 13 % (n = 2, d = 1000, s = 999).
    """
    n = spec.k * spec.n_per_cluster
    return 8 * (6 * spec.subspace_dim * max(spec.view_dims) + 4 * n * sum(spec.view_dims))


# The bytes a view or labels file may hold for np.loadtxt to read it: printable
# ASCII, tab, CR and LF. On these, np.loadtxt splits lines and cells as
# _parse_matrix_csv does and reads each cell to float()'s bits, or fails.
# str.splitlines also ends lines at \x0b, \x0c, \x1c-\x1e and some non-ASCII
# characters, which np.loadtxt strips from a cell as whitespace.
_LOADTXT_BYTES = bytes([9, 10, 13, *range(32, 127)])


def _loadtxt_reads_alike(path: Path, has_header: bool) -> bool:
    """True if np.loadtxt reads ``path`` as _parse_matrix_csv does or fails:
    the file holds only _LOADTXT_BYTES, and a byte other than CR or LF
    follows its header, so that np.loadtxt finds a data line instead of
    warning that it found none. The header is taken to run to the first LF;
    one that ends at a lone CR can only turn the answer to False."""
    skip, data = has_header, False
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            if chunk.translate(None, _LOADTXT_BYTES):
                return False
            if skip:
                _, end, chunk = chunk.partition(b"\n")
                skip = not end
            data = data or bool(chunk.strip(b"\r\n"))
    return data


def _parse_matrix_csv(path: Path, has_header: bool) -> np.ndarray:
    """The matrix in the UTF-8 CSV file ``path``: lines as str.splitlines ends
    them, the first skipped if ``has_header``, blank and whitespace-only lines
    skipped, cells split at commas and read by float()."""
    rows = []
    width = None
    first = int(has_header)
    lines = read_text(path, DatasetError).splitlines()
    for number, line in enumerate(lines[first:], start=first + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DatasetError(
                f"ragged rows in {path}: line {number} has {len(cells)} cells, expected {width}"
            )
        parsed = []
        for column, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DatasetError(
                    f"non-numeric cell {cell!r} at {path} line {number}, column {column}"
                ) from None
        rows.append(parsed)
    if not rows:
        raise DatasetError(f"empty matrix file: {path}")
    return np.asarray(rows, dtype=float)


def _read_matrix_csv(path: Path, has_header: bool) -> np.ndarray:
    """The matrix in the CSV file ``path``, to the bits and errors of
    _parse_matrix_csv.

    A file that _loadtxt_reads_alike admits goes to np.loadtxt, which reads
    it in about 60 % of the time and a sixth of the memory. Every other file,
    and one that np.loadtxt rejects (such as a cell `1_0`, which float()
    reads), goes to _parse_matrix_csv, which returns the matrix or raises
    the DatasetError that names the fault.
    """
    if not path.is_file():
        raise DatasetError(f"file not found: {path}")
    if _loadtxt_reads_alike(path, has_header):
        try:
            # Given a path, np.loadtxt would decompress a file named *.gz.
            with path.open(encoding="ascii") as fh:
                return np.loadtxt(
                    fh, delimiter=",", comments=None, skiprows=int(has_header), ndmin=2
                )
        except ValueError:
            pass
    return _parse_matrix_csv(path, has_header)


def _read_labels_csv(path: Path) -> np.ndarray:
    values = _read_matrix_csv(path, has_header=False)
    if values.shape[1] != 1:
        raise DatasetError(f"labels file {path} has {values.shape[1]} columns, expected 1")
    return _integral_labels(values[:, 0], str(path))


def load_dataset(manifest_path: str | Path) -> MultiViewDataset:
    """Load a dataset described by a JSON manifest.

    The manifest is an object ``{"views": [{"path": str, "has_header": bool}],
    "labels": str|null, "name": str}``; file paths are resolved relative to the
    manifest's directory. Each view CSV holds one sample per row, the optional
    labels CSV one integer per row. Unknown keys are rejected, so a misspelt
    key cannot silently drop the labels or a header setting.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise DatasetError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(read_text(manifest_path, DatasetError))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid manifest JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise DatasetError("manifest must be a JSON object")
    check_known_keys(manifest, MANIFEST_KEYS, "manifest", DatasetError)
    if not isinstance(manifest.get("views"), list) or not manifest["views"]:
        raise DatasetError("manifest lists no views")
    base = manifest_path.parent
    views = []
    for idx, entry in enumerate(manifest["views"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise DatasetError(f"manifest view {idx} needs a 'path' string")
        check_known_keys(entry, VIEW_KEYS, f"manifest view {idx}", DatasetError)
        has_header = entry.get("has_header", False)
        if not isinstance(has_header, bool):
            raise DatasetError(
                f"manifest view {idx} has_header must be true or false, got {has_header!r}"
            )
        views.append(_read_matrix_csv(base / entry["path"], has_header))
    labels = None
    if manifest.get("labels"):
        if not isinstance(manifest["labels"], str):
            raise DatasetError("manifest labels must be a path string or null")
        labels = _read_labels_csv(base / manifest["labels"])
    return MultiViewDataset(views=views, labels=labels)


def write_dataset(ds: MultiViewDataset, out_dir: str | Path, name: str = "dataset") -> Path:
    """Write a dataset as per-view CSVs plus a manifest; returns the manifest path.

    Floats are written with 17 significant digits so that a write/load round
    trip reproduces the matrices exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, view in enumerate(ds.views):
        fname = f"view_{idx}.csv"
        np.savetxt(out_dir / fname, view, fmt="%.17g", delimiter=",")
        entries.append({"path": fname, "has_header": False})
    manifest = {"views": entries, "labels": None, "name": name}
    if ds.labels is not None:
        np.savetxt(out_dir / "labels.csv", ds.labels, fmt="%d")
        manifest["labels"] = "labels.csv"
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return manifest_path


def normalize_views(ds: MultiViewDataset, mode: str = "none") -> MultiViewDataset:
    """Return a dataset with per-view feature normalization applied.

    ``none`` returns the input unchanged. ``unit_row_norm`` scales every
    sample row to unit L2 norm (zero rows are left zero). ``zscore_columns``
    centers each feature column and divides by its population standard
    deviation (zero-variance columns are centered only).
    """
    if mode not in NORMALIZATION_MODES:
        raise DatasetError(f"unknown normalization mode {mode!r}")
    if mode == "none":
        return ds
    views = []
    for view in ds.views:
        if mode == "unit_row_norm":
            # Scaling by the max-abs entry first keeps the squares of tiny
            # rows from underflowing inside the norm.
            peak = np.abs(view).max(axis=1)
            out = view / np.where(peak > 0, peak, 1.0)[:, None]
            norms = np.linalg.norm(out, axis=1)
            out = out / np.where(norms > 0, norms, 1.0)[:, None]
        else:
            out = view - view.mean(axis=0)
            std = out.std(axis=0)  # population convention (divide by n)
            out = out / np.where(std > 0, std, 1.0)
        views.append(out)
    return MultiViewDataset(views=views, labels=ds.labels)
