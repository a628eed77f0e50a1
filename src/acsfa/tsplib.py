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
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

SUPPORTED_METRICS = ("EUC_2D", "GEO", "EXPLICIT")
EXPLICIT_FORMATS = ("FULL_MATRIX", "UPPER_ROW", "LOWER_DIAG_ROW")

# TSPLIB's geographical distance uses this truncated pi, not math.pi.
_GEO_PI = 3.141592
_GEO_RADIUS = 6378.388

# Rows per block when a coordinate distance matrix is built: the float
# temporaries stay at a few (_BLOCK_ROWS, n) arrays whatever n is.
_BLOCK_ROWS = 64

# Tour lengths are int64 sums of n distances, so n times the largest
# distance must stay within int64.
_INT64_MAX = 2**63 - 1

# Within +-2**61 every EUC_2D difference, square and root is finite and the
# root is below 2**62.5, so its int64 cast is exact; every GEO radian is
# finite too. NaN and inf fail the same test.
_COORD_LIMIT = 2.0**61

# Header keys we understand but do not need.
_IGNORED_KEYS = {"COMMENT", "DISPLAY_DATA_TYPE", "NODE_COORD_TYPE", "CAPACITY"}


class TsplibParseError(ValueError):
    """A TSPLIB file that cannot be turned into a supported instance."""


def check_integer(name: str, value, low: float) -> int:
    """``value`` as an int, if it is a Python or numpy integer of at least ``low``.

    Anything else raises ``ValueError``; so does a ``bool``, which would count
    as 0 or 1.
    """
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    # nint(sqrt(dx*dx + dy*dy)), one row block and one coordinate plane at a time.
    n = len(coords)
    x, y = coords[:, 0], coords[:, 1]
    d = np.empty((n, n), dtype=np.int64)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        dx = x[lo:hi, None] - x
        dy = y[lo:hi, None] - y
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        dx += 0.5
        d[lo:hi] = np.floor(dx, out=dx)  # nint()
    return d


def _geo_matrix(coords: np.ndarray) -> np.ndarray:
    # DDD.MM encodes degrees and minutes; truncate toward zero to split them.
    deg = np.trunc(coords)
    minutes = coords - deg
    rad = _GEO_PI * (deg + 5.0 * minutes / 3.0) / 180.0
    lat, lon = rad[:, 0], rad[:, 1]
    n = len(coords)
    d = np.empty((n, n), dtype=np.int64)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        q1 = np.cos(lon[lo:hi, None] - lon[None, :])
        q2 = np.cos(lat[lo:hi, None] - lat[None, :])
        q3 = np.cos(lat[lo:hi, None] + lat[None, :])
        arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
        d[lo:hi] = _GEO_RADIUS * np.arccos(arg) + 1.0  # truncate
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
    # the full (n, n) integer distance matrix, a read-only view of _owner
    dist: np.ndarray = field(init=False, repr=False)
    # the distance matrix the instance built or copied, kept writeable; it
    # is shown only as the read-only ``dist`` and nothing writes it
    _owner: np.ndarray = field(init=False, repr=False)
    # the city labels 0..n-1 that every tour on the instance holds, so tours
    # share one int object per city rather than each making its own above 256
    _labels: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = check_integer("dimension", self.dimension, 3)
        if self.metric not in SUPPORTED_METRICS:
            raise ValueError(f"unsupported metric {self.metric!r}")
        if self.metric == "EXPLICIT":
            if self.weights is None or self.coords is not None:
                raise ValueError("EXPLICIT instances carry a weight matrix and no coordinates")
            w = np.asarray(self.weights)
            if w.dtype.kind == "f" and not ((w == np.round(w)) & (np.abs(w) < 2.0**63)).all():
                raise ValueError("edge weights must be finite integers within int64")
            w = np.array(w, dtype=np.int64)  # a private copy: the caller's array stays writeable
            if w.shape != (n, n):
                raise ValueError(f"weight matrix shape {w.shape} does not match dimension {n}")
            if (w < 0).any():
                raise ValueError("edge weights must be non-negative")
            if np.diag(w).any():
                raise ValueError("weight matrix must have a zero diagonal")
            if (w != w.T).any():
                raise ValueError("weight matrix must be symmetric")
            owner = w
        else:
            if self.coords is None or self.weights is not None:
                raise ValueError(f"{self.metric} instances carry coordinates and no weight matrix")
            c = np.array(self.coords, dtype=float)  # a private copy, as for weights
            if c.shape != (n, 2):
                raise ValueError(f"coordinate array shape {c.shape} does not match dimension {n}")
            if not (np.abs(c) <= _COORD_LIMIT).all():
                raise ValueError("coordinates must be finite and within +-2**61, or distances could overflow int64")
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)
            owner = _euclidean_matrix(c) if self.metric == "EUC_2D" else _geo_matrix(c)
        if n * int(owner.max()) > _INT64_MAX:
            raise ValueError("n x largest distance exceeds 2**63 - 1: tour lengths would overflow int64")
        dist = owner.view()
        dist.setflags(write=False)
        if self.metric == "EXPLICIT":
            object.__setattr__(self, "weights", dist)
        object.__setattr__(self, "_owner", owner)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "_labels", tuple(range(n)))

    def __reduce__(self):
        # pickle the inputs: the owner and its views would each be pickled
        # whole, and unpickled apart; building again restores one matrix and
        # the labels
        return (type(self), (self.name, self.dimension, self.metric, self.coords, self.weights))


def tour_length(inst: TspInstance, order) -> int:
    """Cyclic tour length including the closing edge.

    ``order`` must be a permutation of 0..n-1, given as integers.
    """
    o = np.asarray(order)
    if o.dtype.kind not in "iu":
        raise ValueError(f"order entries must be integers, got {o.dtype}")
    o = o.astype(np.int64, copy=False)
    n = inst.dimension
    if o.shape != (n,) or not np.array_equal(np.sort(o), np.arange(n)):
        raise ValueError(f"order is not a permutation of 0..{n - 1}")
    return int(inst.dist[o, np.roll(o, -1)].sum())


@dataclass(frozen=True)
class Tour:
    """A city permutation with its cached cyclic length."""

    order: tuple[int, ...]
    length: int


def _weight_token(tok: str) -> int | float:
    """An edge weight token, as an exact int when its value is integral."""
    try:
        return int(tok)
    except ValueError:
        pass
    value = float(tok)
    return int(value) if value.is_integer() else value


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

    def read_numbers(start: int, count: int, what: str, number=float) -> tuple[list, int]:
        """Collect exactly ``count`` tokens from consecutive lines, each read by ``number``."""
        values: list = []
        i = start
        while len(values) < count:
            if i >= len(lines):
                raise fail(len(lines) - 1, f"{what}: expected {count} values, found {len(values)}")
            stripped = lines[i].strip()
            if stripped and not stripped[0].isdigit() and stripped[0] not in "+-.":
                raise fail(i, f"{what}: expected {count} values, found {len(values)}")
            for tok in stripped.split():
                try:
                    values.append(number(tok))
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
            if dimension < 3:  # the sections below read it as a count
                raise fail(i, f"dimension must be at least 3, got {dimension}")
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
            # each entry's id, not its place in the file, says which city it is
            ids = rows[:, 0]
            bad = ~((ids >= 1) & (ids <= dimension) & (ids == np.floor(ids)))
            if bad.any():
                raise TsplibParseError(
                    f"NODE_COORD_SECTION: node id {ids[bad][0]:.15g} is not an integer in 1..{dimension}"
                )
            cities = ids.astype(np.intp) - 1
            repeated = np.flatnonzero(np.bincount(cities) > 1)
            if repeated.size:
                raise TsplibParseError(f"NODE_COORD_SECTION: node id {repeated[0] + 1} appears more than once")
            coords = rows[np.argsort(cities), 1:3]
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
            values, i = read_numbers(i + 1, counts[fmt], f"EDGE_WEIGHT_SECTION ({fmt})", _weight_token)
            # Integer tokens stay exact in int64. A section with a fractional
            # token, or one beyond int64, is read as floats, which TspInstance
            # rejects as non-integer weights.
            try:
                flat = np.array(values, dtype=np.int64 if all(type(v) is int for v in values) else float)
            except OverflowError:
                flat = np.array(values, dtype=float)
            mat = np.zeros((n, n), dtype=flat.dtype)
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
