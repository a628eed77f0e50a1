"""TSPLIB instance handling: parsing, integer distances, tour lengths.

Covers the symmetric subset of the format: EUC_2D and GEO coordinate
instances plus EXPLICIT matrices in FULL_MATRIX, UPPER_ROW or
LOWER_DIAG_ROW layout. Distances follow the TSPLIB conventions (nearest
integer for EUC_2D, the 6378.388 earth-radius great-circle rule with
degree.minute coordinate decoding for GEO), so all tour lengths are
integers directly comparable with published best-known optima.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

SUPPORTED_METRICS = ("EUC_2D", "GEO", "EXPLICIT")
EXPLICIT_FORMATS = ("FULL_MATRIX", "UPPER_ROW", "LOWER_DIAG_ROW")

# TSPLIB's geographical distance uses this truncated pi, not math.pi.
_GEO_PI = 3.141592
_GEO_RADIUS = 6378.388

# Header keys we understand but do not need.
_IGNORED_KEYS = {"COMMENT", "DISPLAY_DATA_TYPE", "NODE_COORD_TYPE", "CAPACITY"}


class TsplibParseError(ValueError):
    """A TSPLIB file that cannot be turned into a supported instance."""


def _euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    return np.floor(d + 0.5).astype(np.int64)  # nint()


def _geo_matrix(coords: np.ndarray) -> np.ndarray:
    # DDD.MM encodes degrees and minutes; truncate toward zero to split them.
    deg = np.trunc(coords)
    minutes = coords - deg
    rad = _GEO_PI * (deg + 5.0 * minutes / 3.0) / 180.0
    lat, lon = rad[:, 0], rad[:, 1]
    q1 = np.cos(lon[:, None] - lon[None, :])
    q2 = np.cos(lat[:, None] - lat[None, :])
    q3 = np.cos(lat[:, None] + lat[None, :])
    arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
    d = (_GEO_RADIUS * np.arccos(arg) + 1.0).astype(np.int64)  # truncate
    np.fill_diagonal(d, 0)
    return d


@dataclass(frozen=True, eq=False)
class TspInstance:
    """Immutable symmetric TSP instance with precomputed integer distances.

    Exactly one of ``coords``/``weights`` is set: EXPLICIT instances carry a
    weight matrix, EUC_2D and GEO instances carry an (n, 2) coordinate array.
    """

    name: str
    dimension: int
    metric: str
    coords: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.dimension
        if n < 3:
            raise ValueError(f"dimension must be at least 3, got {n}")
        if self.metric not in SUPPORTED_METRICS:
            raise ValueError(f"unsupported metric {self.metric!r}")
        if self.metric == "EXPLICIT":
            if self.weights is None or self.coords is not None:
                raise ValueError("EXPLICIT instances carry a weight matrix and no coordinates")
            w = np.asarray(self.weights, dtype=np.int64)
            if w.shape != (n, n):
                raise ValueError(f"weight matrix shape {w.shape} does not match dimension {n}")
            if (w < 0).any():
                raise ValueError("edge weights must be non-negative")
            if np.diag(w).any():
                raise ValueError("weight matrix must have a zero diagonal")
            if (w != w.T).any():
                raise ValueError("weight matrix must be symmetric")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
            dist = w
        else:
            if self.coords is None or self.weights is not None:
                raise ValueError(f"{self.metric} instances carry coordinates and no weight matrix")
            c = np.asarray(self.coords, dtype=float)
            if c.shape != (n, 2):
                raise ValueError(f"coordinate array shape {c.shape} does not match dimension {n}")
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)
            dist = _euclidean_matrix(c) if self.metric == "EUC_2D" else _geo_matrix(c)
            dist.setflags(write=False)
        object.__setattr__(self, "_dist", dist)

    @property
    def dist(self) -> np.ndarray:
        """Full (n, n) integer distance matrix."""
        return self._dist  # type: ignore[attr-defined]


def tour_length(inst: TspInstance, order) -> int:
    """Cyclic tour length including the closing edge.

    ``order`` must be a permutation of 0..n-1.
    """
    o = np.asarray(order, dtype=np.int64)
    n = inst.dimension
    if o.shape != (n,) or not np.array_equal(np.sort(o), np.arange(n)):
        raise ValueError(f"order is not a permutation of 0..{n - 1}")
    return int(inst.dist[o, np.roll(o, -1)].sum())


@dataclass(frozen=True)
class Tour:
    """A city permutation with its cached cyclic length."""

    order: tuple[int, ...]
    length: int


def parse_instance(text: str) -> TspInstance:
    """Parse TSPLIB text into a validated :class:`TspInstance`.

    Raises :class:`TsplibParseError` naming the offending line for malformed
    headers, data-block/dimension mismatches or unsupported edge weight
    types. Header keywords outside the needed set produce a warning only.
    """
    lines = text.splitlines()
    name = "unnamed"
    dimension: int | None = None
    metric: str | None = None
    weight_format: str | None = None
    coords: np.ndarray | None = None
    weights: np.ndarray | None = None

    def fail(lineno: int, message: str) -> TsplibParseError:
        shown = lines[lineno].strip() if 0 <= lineno < len(lines) else "<end of file>"
        return TsplibParseError(f"line {lineno + 1}: {message} ({shown!r})")

    def read_numbers(start: int, count: int, what: str) -> tuple[list[float], int]:
        """Collect exactly ``count`` numeric tokens from consecutive lines."""
        values: list[float] = []
        i = start
        while len(values) < count:
            if i >= len(lines):
                raise fail(len(lines) - 1, f"{what}: expected {count} values, found {len(values)}")
            stripped = lines[i].strip()
            if stripped and not stripped[0].isdigit() and stripped[0] not in "+-.":
                raise fail(i, f"{what}: expected {count} values, found {len(values)}")
            for tok in stripped.split():
                try:
                    values.append(float(tok))
                except ValueError:
                    raise fail(i, f"{what}: non-numeric token {tok!r}") from None
                if len(values) > count:
                    raise fail(i, f"{what}: more values than expected ({count})")
            i += 1
        return values, i

    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if not stripped:
            i += 1
            continue
        if stripped == "EOF":
            break
        key, _, value = stripped.partition(":")
        key = key.strip().upper()
        value = value.strip()

        if key == "NAME":
            name = value
        elif key == "TYPE":
            if value.upper() not in ("TSP", ""):
                warnings.warn(f"line {i + 1}: instance type {value!r} treated as symmetric TSP")
        elif key == "DIMENSION":
            try:
                dimension = int(value)
            except ValueError:
                raise fail(i, f"DIMENSION is not an integer: {value!r}") from None
        elif key == "EDGE_WEIGHT_TYPE":
            metric = value.upper()
            if metric not in SUPPORTED_METRICS:
                raise fail(i, f"unsupported EDGE_WEIGHT_TYPE {value!r}")
        elif key == "EDGE_WEIGHT_FORMAT":
            weight_format = value.upper()
            if weight_format not in EXPLICIT_FORMATS:
                raise fail(i, f"unsupported EDGE_WEIGHT_FORMAT {value!r}")
        elif key == "NODE_COORD_SECTION":
            if dimension is None:
                raise fail(i, "NODE_COORD_SECTION before DIMENSION")
            values, i = read_numbers(i + 1, 3 * dimension, "NODE_COORD_SECTION")
            rows = np.asarray(values).reshape(dimension, 3)
            coords = rows[:, 1:3]
            continue
        elif key == "EDGE_WEIGHT_SECTION":
            if dimension is None:
                raise fail(i, "EDGE_WEIGHT_SECTION before DIMENSION")
            fmt = weight_format or "FULL_MATRIX"
            n = dimension
            counts = {
                "FULL_MATRIX": n * n,
                "UPPER_ROW": n * (n - 1) // 2,
                "LOWER_DIAG_ROW": n * (n + 1) // 2,
            }
            start_line = i
            values, i = read_numbers(i + 1, counts[fmt], f"EDGE_WEIGHT_SECTION ({fmt})")
            flat = np.asarray(values)
            if (flat != np.round(flat)).any():
                raise fail(start_line, "EDGE_WEIGHT_SECTION contains non-integer weights")
            flat = flat.astype(np.int64)
            mat = np.zeros((n, n), dtype=np.int64)
            if fmt == "FULL_MATRIX":
                mat = flat.reshape(n, n)
            elif fmt == "UPPER_ROW":
                iu = np.triu_indices(n, k=1)
                mat[iu] = flat
                mat = mat + mat.T
            else:  # LOWER_DIAG_ROW
                il = np.tril_indices(n, k=0)
                mat[il] = flat
                mat = mat + np.tril(mat, k=-1).T
            weights = mat
            continue
        elif key == "DISPLAY_DATA_SECTION":
            if dimension is None:
                raise fail(i, "DISPLAY_DATA_SECTION before DIMENSION")
            _, i = read_numbers(i + 1, 3 * dimension, "DISPLAY_DATA_SECTION")
            continue
        elif key in _IGNORED_KEYS:
            pass
        else:
            warnings.warn(f"line {i + 1}: ignoring unknown TSPLIB keyword {key!r}")
        i += 1

    if dimension is None:
        raise TsplibParseError("missing DIMENSION header")
    if metric is None:
        raise TsplibParseError("missing EDGE_WEIGHT_TYPE header")
    if metric == "EXPLICIT":
        if weights is None:
            raise TsplibParseError("EXPLICIT instance without EDGE_WEIGHT_SECTION")
        data: dict = {"weights": weights}
    else:
        if coords is None:
            raise TsplibParseError(f"{metric} instance without NODE_COORD_SECTION")
        data = {"coords": coords}
    try:
        return TspInstance(name=name, dimension=dimension, metric=metric, **data)
    except ValueError as exc:
        raise TsplibParseError(str(exc)) from None


def format_instance(inst: TspInstance) -> str:
    """Serialize an instance back to TSPLIB text.

    Coordinates are written with full ``repr`` precision, so a parse /
    format / parse round trip reproduces every distance exactly. EXPLICIT
    instances are always written as FULL_MATRIX.
    """
    out = [
        f"NAME : {inst.name}",
        "TYPE : TSP",
        f"DIMENSION : {inst.dimension}",
        f"EDGE_WEIGHT_TYPE : {inst.metric}",
    ]
    if inst.metric == "EXPLICIT":
        out.append("EDGE_WEIGHT_FORMAT : FULL_MATRIX")
        out.append("EDGE_WEIGHT_SECTION")
        for row in inst.weights:
            out.append(" ".join(str(int(v)) for v in row))
    else:
        out.append("NODE_COORD_SECTION")
        for idx, (x, y) in enumerate(inst.coords, start=1):
            out.append(f"{idx} {float(x)!r} {float(y)!r}")
    out.append("EOF")
    return "\n".join(out) + "\n"
