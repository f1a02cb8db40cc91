"""Synthetic manifold datasets, high-dimensional lifting, and file ingestion.

Generators are deterministic per seed, reject a negative or non-finite noise
scale (and a non-finite moons gap or a non-positive or non-finite circle
radius), and post-check that the components they emit really are well
separated (minimum inter-component distance above four noise standard
deviations), since the labeling objective's optimality argument only holds
for disjoint supports.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DatasetError, FormatError, ShapeError
from .nn import orthogonal_init
from .tensor import lanes

STD_FLOOR = 1e-8
DISTANCE_BLOCK_BYTES = 1 << 22   # the separation check's (rows, n_b) squared-distance block

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class ManifoldDataset:
    """A labeled point cloud plus normalization and provenance metadata."""

    points: np.ndarray            # (N, n) float64
    components: np.ndarray        # (N,) integer component ids
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    seed: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.components = np.asarray(self.components, dtype=np.int64)
        if self.points.ndim != 2:
            raise ShapeError(f"points must be (N, n), got shape {self.points.shape}")
        if self.components.shape != (self.points.shape[0],):
            raise ShapeError("one component id per point required")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_components(self) -> int:
        return int(self.components.max()) + 1 if self.size else 0


def min_inter_component_distance(points: np.ndarray, components: np.ndarray) -> float:
    """Smallest Euclidean distance between points of different components.

    One component's rows go in blocks whose (rows, n_b) float64 block of
    squared distances to the other component holds at most
    ``DISTANCE_BLOCK_BYTES`` (one row at least), so memory grows with neither
    the product of the component sizes nor the dimension.  Each block adds
    the squared difference of one coordinate at a time, in coordinate order,
    so a squared distance is the in-order sum ``(x0 - y0)**2 + (x1 - y1)**2
    + ...``.  Below 8 coordinates that is bit for bit numpy's sum over the
    last axis of the full (n_a, n_b, d) array; from 8 on numpy sums pairwise
    and may differ in the last bits.  The minimum is exact, so the result
    does not depend on the block size.  A NaN coordinate makes it NaN.
    """
    best = np.inf
    ids = np.unique(components)
    for i, a in enumerate(ids):
        pa = points[components == a]
        for b in ids[i + 1:]:
            pb = points[components == b].T.copy()   # (d, n_b): one row per coordinate
            rows = max(1, DISTANCE_BLOCK_BYTES // (pb.shape[1] * pb.itemsize))
            for start in range(0, len(pa), rows):
                block = pa[start:start + rows]
                d2 = np.subtract.outer(block[:, 0], pb[0])
                np.square(d2, out=d2)
                diff = np.empty_like(d2)
                for k in range(1, pb.shape[0]):
                    np.subtract.outer(block[:, k], pb[k], out=diff)
                    d2 += np.square(diff, out=diff)
                best = np.minimum(best, np.sqrt(d2.min()))   # NaN propagates
    return float(best)


def _check_noise(noise: float) -> None:
    if not (math.isfinite(noise) and noise >= 0.0):
        raise DatasetError(f"noise must be finite and >= 0, got {noise}")


def _check_disjoint(points, components, noise, what: str) -> float:
    """The components' minimum distance, which must exceed ``4 * noise``; a
    NaN distance fails the check too."""
    dist = min_inter_component_distance(points, components)
    if not dist > 4.0 * noise:
        raise DatasetError(
            f"{what}: components are not well separated "
            f"(min distance {dist:.4f} <= 4 * noise = {4 * noise:.4f}); "
            "reduce the noise or widen the gap")
    return dist


def make_two_moons(n_per: int, gap: float = 0.25, noise: float = 0.06, seed: int = 0) -> ManifoldDataset:
    """Two interlocking crescent arcs separated by ``0.5 + gap`` before noise."""
    if n_per < 1:
        raise DatasetError("n_per must be at least 1")
    if not math.isfinite(gap):
        raise DatasetError(f"gap must be finite, got {gap}")
    _check_noise(noise)
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(0.0, np.pi, n_per)
    t1 = rng.uniform(0.0, np.pi, n_per)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - gap - np.sin(t1)])
    points = np.vstack([upper, lower]) + rng.normal(0.0, noise, (2 * n_per, 2))
    components = np.repeat([0, 1], n_per)
    dist = _check_disjoint(points, components, noise, "two moons")
    meta = {"kind": "moons", "n_per": n_per, "gap": gap, "noise": noise,
            "min_inter_component_distance": dist}
    return ManifoldDataset(points, components, seed=seed, meta=meta)


def make_circles(n_per: int, radii: Sequence[float] = (1.0, 2.0), noise: float = 0.06,
                 seed: int = 0) -> ManifoldDataset:
    """Concentric rings, one component per radius."""
    if n_per < 1:
        raise DatasetError("n_per must be at least 1")
    if len(radii) < 2 or not all(math.isfinite(r) and r > 0 for r in radii):
        raise DatasetError(f"need at least two positive finite radii, got {list(radii)}")
    _check_noise(noise)
    rng = np.random.default_rng(seed)
    chunks, labels = [], []
    for c, r in enumerate(radii):
        theta = rng.uniform(0.0, 2.0 * np.pi, n_per)
        ring = r * np.column_stack([np.cos(theta), np.sin(theta)])
        chunks.append(ring)
        labels.append(np.full(n_per, c))
    points = np.vstack(chunks) + rng.normal(0.0, noise, (n_per * len(radii), 2))
    components = np.concatenate(labels)
    dist = _check_disjoint(points, components, noise, "circles")
    meta = {"kind": "circles", "n_per": n_per, "radii": list(radii), "noise": noise,
            "min_inter_component_distance": dist}
    return ManifoldDataset(points, components, seed=seed, meta=meta)


def make_blobs(k: int, n_per: int, noise: float = 0.3, seed: int = 0) -> ManifoldDataset:
    """k isotropic Gaussian clusters centred evenly on a radius-4 circle."""
    if n_per < 1:
        raise DatasetError("n_per must be at least 1")
    if k < 2:
        raise DatasetError("need at least 2 blobs")
    _check_noise(noise)
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = 4.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(seed)
    points = np.vstack([c + rng.normal(0.0, noise, (n_per, 2)) for c in centers])
    components = np.repeat(np.arange(k), n_per)
    dist = _check_disjoint(points, components, noise, "blobs")
    meta = {"kind": "blobs", "k": k, "n_per": n_per, "noise": noise,
            "centers": centers.tolist(), "min_inter_component_distance": dist}
    return ManifoldDataset(points, components, seed=seed, meta=meta)


def lift_and_rotate(ds: ManifoldDataset, dim: int, seed: int) -> ManifoldDataset:
    """Zero-pad points to ``dim`` dimensions and apply a random rotation.

    The rotation is orthogonal, so all pairwise distances are preserved;
    the lift parameters are recorded in metadata so grids and new points can
    be pushed through the same map later.
    """
    if dim < ds.dim:
        raise ShapeError(f"cannot lift {ds.dim}-D data into {dim} dimensions")
    meta = dict(ds.meta)
    meta["lift"] = {"dim": dim, "seed": seed, "base_dim": ds.dim}
    return ManifoldDataset(lift_points(ds.points, meta["lift"]), ds.components.copy(),
                           seed=ds.seed, meta=meta)


def lift_points(points: np.ndarray, lift_meta: dict) -> np.ndarray:
    """Apply a recorded lift to new points (e.g. a visualization grid).

    Zero-padding to ``dim`` and rotating reads only the rotation's first
    ``base_dim`` rows, so the points are multiplied by those rows alone; the
    rotation is still the full ``orthogonal_init(dim, dim, seed)``, since each
    row of a QR factor depends on the whole factorization.
    """
    points = np.asarray(points, dtype=np.float64)
    dim, seed, base = lift_meta["dim"], lift_meta["seed"], lift_meta["base_dim"]
    if points.shape[1] != base:
        raise ShapeError(f"expected {base}-D points for this lift, got {points.shape[1]}-D")
    base_rows = orthogonal_init(dim, dim, seed)[:base].copy()  # frees the other rows
    return points @ base_rows


def unlift_points(points: np.ndarray, lift_meta: dict) -> np.ndarray:
    """Invert a recorded lift, recovering the base coordinates.

    The base coordinates are the products with the rotation's first
    ``base_dim`` rows, but they are sliced from the full product: the
    product with those rows alone is a GEMM so narrow that OpenBLAS, on
    its SkylakeX (AVX-512) kernels, runs it up to about 600 input rows in a
    small-matrix kernel that sums in another order and changes the last bits.
    """
    points = np.asarray(points, dtype=np.float64)
    dim = lift_meta["dim"]
    if points.shape[1] != dim:
        raise ShapeError(f"expected {dim}-D points for this lift, got {points.shape[1]}-D")
    rotation = orthogonal_init(dim, dim, lift_meta["seed"])
    with lanes():   # one BLAS thread: at K = 400 or 1000 two threads sum in another order
        return (points @ rotation.T)[:, : lift_meta["base_dim"]]


def standardize(ds: ManifoldDataset) -> ManifoldDataset:
    """Shift/scale every dimension to zero mean and unit variance.

    Standard deviations are floored at 1e-8, so constant dimensions map to
    zeros.  The statistics are estimated from ``ds`` and stored on the
    result, so the same affine map can be applied to other points.
    """
    if ds.size < 2:
        raise DatasetError("standardize needs at least 2 points to estimate statistics")
    mean = ds.points.mean(axis=0)
    std = np.maximum(ds.points.std(axis=0), STD_FLOOR)
    points = (ds.points - mean) / std
    return ManifoldDataset(points, ds.components.copy(), mean=mean, std=std,
                           seed=ds.seed, meta=dict(ds.meta))


# --- IDX binary ingestion (big-endian headers, uint8 payload) ---

def _read_idx(path: Path, magic: int, dims: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The ``dims`` sizes and the flat uint8 payload of one IDX file whose
    header is ``magic`` followed by those sizes, as big-endian uint32."""
    raw = path.read_bytes()
    header = 4 * (1 + dims)
    if len(raw) < header:
        raise FormatError(f"{path}: header truncated at byte {len(raw)} (need {header})")
    found, *sizes = struct.unpack(f">{1 + dims}I", raw[:header])
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x} at byte 0 (expected 0x{magic:08x})")
    expected = header + math.prod(sizes)
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)} "
                          f"(payload starts at byte {header})")
    return tuple(sizes), np.frombuffer(raw, dtype=np.uint8, offset=header)


def load_idx(images_path: str | Path, labels_path: str | Path) -> ManifoldDataset:
    """Load an images/labels IDX pair as flat points scaled to [0, 1]."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    (count, rows, cols), images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    (lcount,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if lcount != count:
        raise FormatError(f"label count {lcount} != image count {count} "
                          f"({labels_path} vs {images_path})")
    meta = {"kind": "idx", "images": str(images_path), "labels": str(labels_path),
            "rows": rows, "cols": cols}
    return ManifoldDataset(images.reshape(count, rows * cols).astype(np.float64) / 255.0,
                           labels.astype(np.int64), seed=0, meta=meta)


def write_idx(images: np.ndarray, labels: np.ndarray,
              images_path: str | Path, labels_path: str | Path) -> None:
    """Write an (N, rows, cols) uint8 image stack and labels as an IDX pair."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3:
        raise ShapeError(f"images must be (N, rows, cols), got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ShapeError("one label per image required")
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(labels.tobytes())


# --- CSV interchange: header x0,...,x{n-1},component ---

def save_csv(ds: ManifoldDataset, path: str | Path) -> None:
    path = Path(path)
    header = ",".join([f"x{i}" for i in range(ds.dim)] + ["component"])
    lines = [header]
    for row, comp in zip(ds.points, ds.components):
        lines.append(",".join("%.17g" % v for v in row) + f",{comp}")
    path.write_text("\n".join(lines) + "\n")


def load_csv(path: str | Path, meta: dict | None = None) -> ManifoldDataset:
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[-1] != "component":
            raise FormatError(f"{path}: expected header ending in 'component', got {header[-3:]}")
        dim = len(header) - 1
        rows = fh.readlines()
    if not any(row.strip() for row in rows):
        raise FormatError(f"{path}: no data rows")
    try:
        raw = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: {_unreadable_line(_data_lines(rows), dim + 1) or exc}") from exc
    if raw.shape[1] != dim + 1:
        raise FormatError(f"{path}: rows have {raw.shape[1]} columns, header implies {dim + 1}")
    points, comp = raw[:, :dim], raw[:, dim]
    # ids must cast to int64 exactly (NaN fails every comparison); a command
    # that reads them against its k checks their range
    bad_comp = ~((np.abs(comp) < 2.0 ** 63) & (comp == np.floor(comp)))
    bad = bad_comp | ~np.isfinite(points).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        line = _data_lines(rows)[i][0]
        if bad_comp[i]:
            what = f"component {comp[i]:g} is not a 64-bit integer"
        else:
            j = int(np.argmin(np.isfinite(points[i])))
            what = f"coordinate x{j} = {points[i, j]:g} is not finite"
        raise FormatError(f"{path}: line {line}: {what}")
    return ManifoldDataset(points, comp.astype(np.int64), meta=meta or {})


def _data_lines(rows: list[str]) -> list[tuple[int, str]]:
    """The rows ``np.loadtxt`` reads, as (file line, text before any ``#``):
    it skips only the lines with nothing before a ``#``, and the header is
    line 1."""
    lines = ((n, row.split("#", 1)[0].rstrip("\r\n")) for n, row in enumerate(rows, start=2))
    return [(n, text) for n, text in lines if text]


def _unreadable_line(lines: list[tuple[int, str]], columns: int) -> str | None:
    """What is wrong with the first data line that ``np.loadtxt`` cannot
    read as ``columns`` numbers, and its file line; ``None`` if every line
    parses.  Each field is judged by ``np.loadtxt`` itself, which rejects
    some tokens Python's ``float`` reads (``1_0``, non-ASCII digits)."""
    for n, text in lines:
        fields = text.split(",")
        if len(fields) != columns:
            return f"line {n}: expected {columns} comma-separated values, got {len(fields)}"
        try:
            np.loadtxt([text], delimiter=",")
        except ValueError:
            bad = next((f for f in fields if not _reads_as_number(f)), None)
            if bad is not None:
                return f"line {n}: {bad.strip()!r} is not a number"
    return None


def _reads_as_number(field: str) -> bool:
    """Whether ``np.loadtxt`` reads ``field`` as a number (an empty field
    would read as a blank line, so it is rejected first)."""
    if not field:
        return False
    try:
        np.loadtxt([field], delimiter=",")
    except ValueError:
        return False
    return True
