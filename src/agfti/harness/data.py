"""Multi-view dataset container with a frozen binary layout and a CSV fallback.

Binary layout (all little-endian):

    magic "MVDS" (4 bytes)
    u32 version = 1
    u32 n  (samples)
    u32 V  (views)
    u32 c  (classes)
    V x u32 per-view feature dimensions
    n x i32 labels (-1 = unknown)
    per view, n x d_v float64, row-major

The CSV fallback is a directory with view0.csv .. view{V-1}.csv plus
labels.csv, written at 17 significant digits so doubles round-trip exactly;
labels.csv opens with the class count as a "# c=<c>" line, which loadtxt skips.
"""

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"MVDS"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")


class ContainerFormatError(ValueError):
    """Malformed container file; messages carry byte offsets."""


@dataclass
class DatasetContainer:
    views: list
    labels: np.ndarray
    c: int
    name: str = ""

    def __post_init__(self):
        self.views = [np.ascontiguousarray(X, dtype=np.float64) for X in self.views]
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if not self.views:
            raise ValueError("container needs at least one view")
        n = self.views[0].shape[0]
        for v, X in enumerate(self.views):
            if X.ndim != 2 or X.shape[0] != n:
                raise ValueError(
                    f"view {v} has shape {X.shape}; expected ({n}, d_v)"
                )
        if self.labels.shape != (n,):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match n = {n}"
            )
        if self.c < 1:
            raise ValueError("class count must be positive")
        if self.labels.min() < -1 or self.labels.max() >= self.c:
            raise ValueError(
                f"labels must lie in [-1, {self.c}); found range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        known = self.labels[self.labels >= 0]
        covered = np.unique(known)
        if covered.size < self.c:
            absent = sorted(set(range(self.c)) - set(covered.tolist()))
            warnings.warn(
                f"classes {absent} have no labeled samples in this container",
                UserWarning,
                stacklevel=2,
            )

    @property
    def n(self):
        return self.views[0].shape[0]

    @property
    def V(self):
        return len(self.views)

    @property
    def dims(self):
        return tuple(X.shape[1] for X in self.views)


def save_dataset(container, path):
    """Write the frozen binary layout."""
    path = Path(path)
    n, V, c = container.n, container.V, container.c
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n, V, c))
        fh.write(struct.pack(f"<{V}I", *container.dims))
        fh.write(container.labels.astype("<i4").tobytes())
        for X in container.views:
            fh.write(np.ascontiguousarray(X, dtype="<f8").tobytes())


def load_dataset(path):
    """Read the binary layout back, with offset-bearing errors."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise ContainerFormatError(
            f"truncated header: expected at least {_HEADER.size} bytes, "
            f"actual {len(data)}"
        )
    magic, version, n, V, c = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ContainerFormatError(
            f"bad magic {magic!r} at byte offset 0; expected {MAGIC!r}"
        )
    if version != VERSION:
        raise ContainerFormatError(
            f"unsupported version {version} at byte offset 4; expected {VERSION}"
        )
    dims_off = _HEADER.size
    need = dims_off + 4 * V
    if len(data) < need:
        raise ContainerFormatError(
            f"truncated dimension table: expected at least {need} bytes, "
            f"actual {len(data)}"
        )
    dims = struct.unpack_from(f"<{V}I", data, dims_off)
    labels_off = need
    views_off = labels_off + 4 * n
    total = views_off + 8 * n * sum(dims)
    if len(data) != total:
        raise ContainerFormatError(
            f"wrong file length: expected {total} bytes, actual {len(data)}"
        )
    labels = np.frombuffer(data, dtype="<i4", count=n, offset=labels_off).copy()
    bad = np.where((labels < -1) | (labels >= c))[0]
    if bad.size:
        i = int(bad[0])
        raise ContainerFormatError(
            f"label {labels[i]} for sample {i} out of range [-1, {c}) "
            f"at byte offset {labels_off + 4 * i}"
        )
    views = []
    off = views_off
    for d in dims:
        X = np.frombuffer(data, dtype="<f8", count=n * d, offset=off)
        views.append(X.reshape(n, d).copy())
        off += 8 * n * d
    return DatasetContainer(views=views, labels=labels, c=c, name=path.stem)


def save_dataset_csv(container, dirpath):
    """CSV fallback: one file per view plus labels.csv."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for v, X in enumerate(container.views):
        np.savetxt(dirpath / f"view{v}.csv", X, fmt="%.17g", delimiter=",")
    np.savetxt(dirpath / "labels.csv", container.labels, fmt="%d",
               header=f"c={container.c}")


def load_dataset_csv(dirpath):
    """Read the CSV fallback; c is inferred only if labels.csv has no c line."""
    dirpath = Path(dirpath)
    names = {p.name for p in dirpath.glob("view*.csv")}
    if not names:
        raise ContainerFormatError(f"no view*.csv files under {dirpath}")
    expected = [f"view{v}.csv" for v in range(len(names))]
    stray = sorted(names - set(expected))
    if stray:
        raise ContainerFormatError(
            f"unexpected view file {dirpath / stray[0]}; expected {expected}"
        )
    labels_path = dirpath / "labels.csv"
    if not labels_path.is_file():
        raise ContainerFormatError(f"no labels.csv under {dirpath}")
    views = [np.loadtxt(dirpath / n, delimiter=",", ndmin=2) for n in expected]
    first = labels_path.read_text().partition("\n")[0]
    labels = np.loadtxt(labels_path, dtype=np.int64, ndmin=1)
    c = int(first[4:]) if first.startswith("# c=") else int(labels.max()) + 1
    return DatasetContainer(views=views, labels=labels, c=c, name=dirpath.name)


def load_container(path):
    """Load a container: a directory as the CSV fallback, a file as binary."""
    if Path(path).is_dir():
        return load_dataset_csv(path)
    return load_dataset(path)
