"""Dataset ingestion, standardization, splitting, and the synthetic
unit-disc regression tasks."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

DISC_FUNCTION_NAMES = ("sin", "saw", "cubic", "sinc", "expabs", "tan")

_TAN_CLIP = 50.0  # keeps targets finite near the poles of tan


@dataclass(frozen=True)
class Stats:
    mean: np.ndarray
    std: np.ndarray
    y_mean: float
    y_std: float


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    name: str = "dataset"
    indices: np.ndarray | None = None  # source-row provenance after a split

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X must be (n, d) and y (n,)")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def load_csv(path, target_column) -> Dataset:
    """Load a numeric CSV; ``target_column`` is a name (requires a
    header) or a 0-based index (negative counts from the end). The first
    row is a header when any of its cells is not a number."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ValueError(f"{path}: empty file")

    header = None
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        header = rows[0]
        rows = rows[1:]

    if isinstance(target_column, str):
        if header is None:
            raise ValueError("named target column requires a header row")
        try:
            target_idx = header.index(target_column)
        except ValueError:
            raise ValueError(f"no column named {target_column!r} in header") from None
    else:
        target_idx = int(target_column)

    ncol = len(rows[0])
    data = np.empty((len(rows), ncol))
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} fields, expected {ncol}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell in ("", "NA", "NaN", "nan", "?"):
                raise ValueError(f"{path}: missing value at row {i + 1}, column {j + 1}")
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: unparseable value {cell!r} at row {i + 1}, column {j + 1}"
                ) from None
    target_idx = target_idx % ncol
    y = data[:, target_idx]
    X = np.delete(data, target_idx, axis=1)
    return Dataset(X, y, name=str(path))


def standardize(ds: Dataset):
    """Column-standardize X and y to mean 0, variance 1. Returns
    (dataset, stats); raises on constant columns."""
    mean = ds.X.mean(axis=0)
    std = ds.X.std(axis=0)
    if (std <= 0.0).any():
        cols = np.nonzero(std <= 0.0)[0]
        raise ValueError(f"constant feature column(s) {cols.tolist()} cannot be standardized")
    y_std = ds.y.std()
    if y_std <= 0.0:
        raise ValueError("constant target cannot be standardized")
    stats = Stats(mean, std, float(ds.y.mean()), float(y_std))
    X = (ds.X - mean) / std
    y = (ds.y - stats.y_mean) / y_std
    return Dataset(X, y, name=ds.name, indices=ds.indices), stats


def split(ds: Dataset, train_frac: float, seed: int):
    """Seeded permutation split into (train, test)."""
    if ds.n < 2:
        raise ValueError("need at least two rows to split")
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must lie in (0, 1)")
    rng = np.random.Generator(np.random.Philox(key=seed))
    perm = rng.permutation(ds.n)
    n_train = max(1, min(ds.n - 1, int(round(train_frac * ds.n))))
    tr, te = np.sort(perm[:n_train]), np.sort(perm[n_train:])
    return (Dataset(ds.X[tr], ds.y[tr], name=ds.name + ":train", indices=tr),
            Dataset(ds.X[te], ds.y[te], name=ds.name + ":test", indices=te))


def _saw(gamma):
    # period-2pi sawtooth ramping -1 -> 1
    return np.mod(gamma, 2.0 * np.pi) / np.pi - 1.0


_DISC_FUNCTIONS = {
    "sin": np.sin,
    "saw": lambda g: 2.0 * _saw(g) + 5.0,
    "cubic": lambda g: g ** 3 - 4.0,
    "sinc": lambda g: np.sinc(g / np.pi),  # sin(g)/g with the 0 limit
    "expabs": lambda g: np.exp(np.abs(g - np.pi)),
    "tan": lambda g: np.clip(np.tan(g), -_TAN_CLIP, _TAN_CLIP),
}


def disc_function(name: str):
    if name not in _DISC_FUNCTIONS:
        raise ValueError(f"unknown disc function {name!r}; choose from {DISC_FUNCTION_NAMES}")
    return _DISC_FUNCTIONS[name]


def disc_task(f_name: str, n: int, noise_var: float = 0.1, seed: int = 0) -> Dataset:
    """Unit-circle inputs at uniform random headings with noisy targets
    y = f(heading) + N(0, noise_var)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if noise_var < 0.0:
        raise ValueError("noise_var must be nonnegative")
    f = disc_function(f_name)
    rng = np.random.Generator(np.random.Philox(key=seed))
    gamma = rng.uniform(0.0, 2.0 * np.pi, size=n)
    X = np.column_stack([np.cos(gamma), np.sin(gamma)])
    y = f(gamma) + np.sqrt(noise_var) * rng.standard_normal(n)
    return Dataset(X, y, name=f"disc-{f_name}")


def disc_grid(f_name: str, n: int = 100) -> Dataset:
    """Deterministic uniform test grid on the unit circle (noise-free)."""
    f = disc_function(f_name)
    gamma = 2.0 * np.pi * np.arange(n) / n
    X = np.column_stack([np.cos(gamma), np.sin(gamma)])
    return Dataset(X, f(gamma), name=f"disc-{f_name}:grid")
