"""Randomized-complete-block ANOVA and Tukey pairwise grouping.

The response is one row per treatment (algorithm) and one column per block
(problem instance). p-values come from the F upper tail, a regularised
incomplete beta function evaluated by its continued fraction; Tukey critical
points come from numerically integrating the studentized range distribution,
so any confidence level in (0, 1) works without table lookup.

Everything here runs on numpy and the standard library, with no scipy: its
special functions would add ~0.3 s and ~24 MB to every analysis, for three
functions that take a few dozen lines (``math.lgamma``, the incomplete beta
below, and Cephes' rational approximations of erf and erfc).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np


@dataclass(frozen=True, eq=False)
class ResponseMatrix:
    """a x b response table with treatment row labels and block column labels."""

    values: np.ndarray
    treatments: tuple[str, ...]
    blocks: tuple[str, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "treatments", tuple(self.treatments))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        a, b = len(self.treatments), len(self.blocks)
        if v.shape != (a, b):
            raise ValueError(f"values shape {v.shape} does not match {a} treatments x {b} blocks")
        if a < 2 or b < 2:
            raise ValueError(f"need at least 2 treatments and 2 blocks, got {a} x {b}")
        if not np.isfinite(v).all():
            raise ValueError("response matrix has missing or non-finite cells")
        if len(set(self.treatments)) != a or len(set(self.blocks)) != b:
            raise ValueError("treatment and block labels must be unique")


@dataclass(frozen=True)
class AnovaRow:
    df: int
    ss: float
    ms: float


@dataclass(frozen=True)
class AnovaTable:
    treatment: AnovaRow
    block: AnovaRow
    error: AnovaRow
    total: AnovaRow
    f_treatment: float
    p_treatment: float
    f_block: float
    p_block: float
    degenerate: bool = False


@dataclass(frozen=True)
class PairComparison:
    first: str
    second: str
    difference: float
    significant: bool


@dataclass(frozen=True)
class TukeyGrouping:
    """Letter display: treatments sharing a letter are not significantly different."""

    treatments: tuple[str, ...]  # sorted by mean, descending
    means: tuple[float, ...]
    letters: tuple[str, ...]
    pairs: tuple[PairComparison, ...]
    q_critical: float
    hsd: float
    confidence: float


def error_matrix(best: ResponseMatrix, optima: Mapping[str, float]) -> ResponseMatrix:
    """Best lengths minus the known optimum of each block's instance."""
    missing = [b for b in best.blocks if b not in optima]
    if missing:
        raise ValueError(f"no optimum given for instance(s): {', '.join(missing)}")
    offsets = np.array([optima[b] for b in best.blocks], dtype=float)
    values = best.values - offsets[None, :]
    if (values < 0).any():
        bad = np.argwhere(values < 0)[0]
        raise ValueError(
            f"best length below the known optimum for "
            f"({best.treatments[bad[0]]}, {best.blocks[bad[1]]})"
        )
    return ResponseMatrix(values, best.treatments, best.blocks)


def rcbd_anova(m: ResponseMatrix) -> AnovaTable:
    """Two-factor additive decomposition: treatments, blocks, residual."""
    x = m.values
    a, b = x.shape
    grand = x.mean()
    ss_treat = b * float(((x.mean(axis=1) - grand) ** 2).sum())
    ss_block = a * float(((x.mean(axis=0) - grand) ** 2).sum())
    ss_total = float(((x - grand) ** 2).sum())
    ss_error = max(ss_total - ss_treat - ss_block, 0.0)

    df_treat = a - 1
    df_block = b - 1
    df_error = (a - 1) * (b - 1)
    df_total = a * b - 1

    ms_treat = ss_treat / df_treat
    ms_block = ss_block / df_block
    ms_error = ss_error / df_error

    degenerate = ss_total == 0.0
    if degenerate:
        f_treat = f_block = 0.0
        p_treat = p_block = 1.0
    elif ms_error == 0.0:
        f_treat = np.inf if ss_treat > 0 else 0.0
        f_block = np.inf if ss_block > 0 else 0.0
        p_treat = 0.0 if ss_treat > 0 else 1.0
        p_block = 0.0 if ss_block > 0 else 1.0
    else:
        f_treat = ms_treat / ms_error
        f_block = ms_block / ms_error
        p_treat = _f_upper_tail(df_treat, df_error, f_treat)
        p_block = _f_upper_tail(df_block, df_error, f_block)

    return AnovaTable(
        treatment=AnovaRow(df_treat, ss_treat, ms_treat),
        block=AnovaRow(df_block, ss_block, ms_block),
        error=AnovaRow(df_error, ss_error, ms_error),
        total=AnovaRow(df_total, ss_total, ss_total / df_total),
        f_treatment=float(f_treat),
        p_treatment=float(p_treat),
        f_block=float(f_block),
        p_block=float(p_block),
        degenerate=degenerate,
    )


def _f_upper_tail(d1: int, d2: int, f: float) -> float:
    """P(F > f) for F with (d1, d2) degrees of freedom: I_x(d2 / 2, d1 / 2) at x = d2 / (d2 + d1 f)."""
    r = d1 * f / d2
    if r <= 0.0:
        return 1.0
    if r == math.inf:
        return 0.0
    # x and 1 - x are each computed from r, so neither loses digits to the other
    return _beta_regularized(d2 / 2.0, d1 / 2.0, 1.0 / (1.0 + r), r / (1.0 + r))


def _beta_regularized(a: float, b: float, x: float, y: float) -> float:
    """The regularised incomplete beta I_x(a, b), given x in (0, 1) and y = 1 - x.

    The continued fraction converges fast only for x < (a + 1) / (a + b + 2),
    so above that point this returns 1 - I_y(b, a).
    """
    swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, y = b, a, y, x
    log_front = a * math.log(x) + b * math.log(y) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    value = math.exp(log_front) / (a * _beta_fraction(a, b, x))
    return 1.0 - value if swap else value


def _beta_fraction(a: float, b: float, x: float) -> float:
    """1 + d1 / (1 + d2 / (1 + ...)), the continued fraction of I_x(a, b), by Lentz's method.

    d(2m+1) = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)) and
    d(2m) = m (b - m) x / ((a + 2m - 1)(a + 2m)); each convergent is the last
    times c * d, and a zero term (b = m) ends the fraction exactly.
    """
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    m = 0
    while True:
        for num in (
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
            (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            delta = c * d
            f *= delta
            if abs(delta - 1.0) <= 1e-15:
                return f
        m += 1


# Cephes' erf on |x| < 1 as x T(x^2) / U(x^2), and erfc on 1 <= x < 8 as
# exp(-x^2) P(x) / Q(x); coefficients from highest degree down
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)


def _horner(coefs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, to ~1e-16 absolute.

    Arguments below -8.5 give 0 (the true value is below 1e-17), so
    |x| = |a| / sqrt(2) stays under 6.02 and erfc needs only its x < 8 form.
    """
    x = a * math.sqrt(0.5)
    ax = np.abs(x)
    out = np.zeros_like(x)
    near = ax < 1.0
    xn = x[near]
    s = xn * xn
    out[near] = 0.5 + 0.5 * xn * _horner(_ERF_T, s) / _horner(_ERF_U, s)
    far = ~near & (x > -8.5 * math.sqrt(0.5))
    xf = ax[far]
    tail = 0.5 * np.exp(-xf * xf) * _horner(_ERFC_P, xf) / _horner(_ERFC_Q, xf)
    out[far] = np.where(x[far] > 0.0, 1.0 - tail, tail)
    return out


def _legendre_recurrence(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) from the three-term recurrence j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


# cached per node count only: the u-grid's ends move with q
@lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the recurrence finds the positive half of the roots
    of P_n from cos(pi (k - 1/4) / (n + 1/2)); the weights are
    2 / ((1 - x)(1 + x) P_n'(x)^2) at the converged nodes, and both are
    mirrored. This takes O(n) memory, where numpy's ``leggauss`` eigensolves
    an n x n companion matrix (+5.7 MB peak RSS at n = 512), and its nodes
    and weights are at least as accurate.
    """
    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(50):
        p, dp = _legendre_recurrence(n, x)
        step = p / dp
        x -= step
        # convergence is quadratic, so a step this small leaves x at rounding level
        if np.abs(step).max() <= 1e-15:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n={n} did not converge")
    _, dp = _legendre_recurrence(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    half = n // 2  # x descends, so the mirror of its first n // 2 entries ascends
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


def _gauss_nodes(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _normal_range_cdf(w: np.ndarray, k: int) -> np.ndarray:
    """P(range of k iid standard normals <= w), vectorized over w."""
    z, zw = _gauss_nodes(512, -9.0, 9.0)
    phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    cdf_z = _ndtr(z)
    vals = np.empty(len(w))
    # 16 rows at a time: each temporary is 64 KB, under malloc's default
    # mmap threshold, so the heap keeps it for reuse, where whole
    # (len(w), 512) temporaries could go back to the OS after every call and
    # be faulted in again, at up to twice the time; 64-row blocks give the
    # same bytes on the CDF's 384-point grids from temporaries 4x the size
    for i in range(0, len(w), 16):
        inner = np.clip(cdf_z - _ndtr(z - w[i : i + 16, None]), 0.0, 1.0)
        vals[i : i + 16] = k * ((inner ** (k - 1)) * phi) @ zw
    return np.clip(vals, 0.0, 1.0)


def studentized_range_cdf(q: float, k: int, df: int) -> float:
    """CDF of the studentized range with k groups and df error degrees of freedom.

    Integrates the normal-range CDF against the density of s/sigma (chi over
    sqrt(df)) on Gauss-Legendre grids; the absolute error is below 1e-9 for k <= 10.
    """
    if k < 2:
        raise ValueError(f"need at least 2 groups, got {k}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if q <= 0:
        return 0.0
    hi = 1.0 + 12.0 / np.sqrt(df)
    lo = max(0.0, 1.0 - 12.0 / np.sqrt(df))
    # the normal-range CDF at q * u climbs from 0 to within ~1e-12 of 1 over
    # u < 10 / q; at large q (df = 1) that is a sliver of [lo, hi], so it
    # gets half the nodes of its own
    cut = 10.0 / q
    edges = (lo, cut, hi) if lo < cut < hi else (lo, hi)
    n = 384 // (len(edges) - 1)
    u, uw = map(np.concatenate, zip(*(_gauss_nodes(n, a, b) for a, b in zip(edges, edges[1:]))))
    log_c = 0.5 * df * np.log(df) - math.lgamma(df / 2.0) - (df / 2.0 - 1.0) * np.log(2.0)
    log_g = log_c + (df - 1.0) * np.log(u) - 0.5 * df * u * u
    val = float((np.exp(log_g) * _normal_range_cdf(q * u, k)) @ uw)
    return min(max(val, 0.0), 1.0)


def _increasing_root(f, lo: float, flo: float, hi: float, fhi: float, xtol: float) -> float:
    """Root of an increasing f with flo = f(lo) < 0 <= fhi = f(hi), to within xtol.

    Illinois regula falsi: each step interpolates across the bracket, and an
    end kept twice in a row has its stored value halved, so both ends close
    in superlinearly rather than one end staying put as in plain false
    position.
    """
    kept = 0
    while hi - lo > xtol:
        x = lo - flo * (hi - lo) / (fhi - flo)
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo, flo = x, fx
            if kept == -1:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = x, fx
            if kept == 1:
                flo *= 0.5
            kept = 1
    return 0.5 * (lo + hi)


def studentized_range_quantile(p: float, k: int, df: int) -> float:
    """Inverse CDF of the studentized range, solved by bracketing to ~1e-9.

    Quantiles beyond 1e4 (p very close to 1 at df = 1) are rejected. Results
    are memoised per (p, k, df).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    return _quantile(p, k, df)


# the cache sits on a private helper so the public name stays a plain
# function, with no __wrapped__ for tracing tools to mistake for a patch
@lru_cache
def _quantile(p: float, k: int, df: int) -> float:
    def f(q: float) -> float:
        return studentized_range_cdf(q, k, df) - p

    # the CDF is exactly 0 at q = 0, so f(0) = -p costs no evaluation; the
    # doubling shows f < 0 at each point it passes, so the root search
    # starts on its last step [hi / 2, hi] with both values already known
    lo, flo = 0.0, -p
    hi, fhi = 4.0, f(4.0)
    while fhi < 0.0:
        lo, flo = hi, fhi
        hi *= 2.0
        if hi > 1e4:
            raise ValueError(
                f"the studentized range quantile for p={p}, k={k}, df={df} lies beyond 1e4"
            )
        fhi = f(hi)
    return _increasing_root(f, lo, flo, hi, fhi, 1e-9)


def _letter(index: int) -> str:
    out = ""
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


def tukey_hsd(m: ResponseMatrix, confidence: float = 0.90) -> TukeyGrouping:
    """Pairwise comparison of treatment means at the given confidence level.

    Two treatments differ when their mean difference exceeds
    q * sqrt(ms_error / b); letter groups are maximal runs of sorted means
    within that margin, so sharing a letter means "not significantly
    different".
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    anova = rcbd_anova(m)
    a, b = m.values.shape
    q_crit = studentized_range_quantile(confidence, a, anova.error.df)
    hsd = q_crit * float(np.sqrt(anova.error.ms / b))

    means = m.values.mean(axis=1)
    order = sorted(range(a), key=lambda i: (-means[i], i))
    sorted_means = [float(means[i]) for i in order]
    sorted_labels = [m.treatments[i] for i in order]

    pairs = []
    for i in range(a):
        for j in range(i + 1, a):
            diff = sorted_means[i] - sorted_means[j]
            pairs.append(
                PairComparison(sorted_labels[i], sorted_labels[j], diff, diff > hsd)
            )

    # maximal intervals of sorted means spanning at most the significance margin
    groups: list[tuple[int, int]] = []
    prev_hi = -1
    for lo in range(a):
        hi_idx = lo
        while hi_idx + 1 < a and sorted_means[lo] - sorted_means[hi_idx + 1] <= hsd:
            hi_idx += 1
        if hi_idx > prev_hi or not groups:
            groups.append((lo, hi_idx))
            prev_hi = hi_idx
    letters = ["" for _ in range(a)]
    for g, (lo, hi_idx) in enumerate(groups):
        for t in range(lo, hi_idx + 1):
            letters[t] += _letter(g)

    return TukeyGrouping(
        treatments=tuple(sorted_labels),
        means=tuple(sorted_means),
        letters=tuple(letters),
        pairs=tuple(pairs),
        q_critical=float(q_crit),
        hsd=float(hsd),
        confidence=float(confidence),
    )


def read_response_matrix(text: str) -> ResponseMatrix:
    """Parse a comma-separated table: header row of block labels, one row per treatment."""
    stripped = (line.strip() for line in text.splitlines())
    rows = [line for line in stripped if line and not line.startswith("#")]
    if len(rows) < 3:
        raise ValueError("response matrix needs a header row and at least two treatment rows")
    header = [c.strip() for c in rows[0].split(",")]
    blocks = header[1:]
    treatments = []
    values = []
    for line in rows[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(blocks) + 1:
            raise ValueError(f"row {cells[0]!r} has {len(cells) - 1} cells, expected {len(blocks)}")
        treatments.append(cells[0])
        row = []
        for block, cell in zip(blocks, cells[1:]):
            try:
                row.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"row {cells[0]!r}, column {block!r}: cell {cell!r} is not a number"
                ) from None
        values.append(row)
    return ResponseMatrix(np.array(values), tuple(treatments), tuple(blocks))


def write_response_matrix(m: ResponseMatrix) -> str:
    lines = [",".join(["treatment", *m.blocks])]
    for label, row in zip(m.treatments, m.values):
        cells = [f"{v:.10g}" for v in row]
        lines.append(",".join([label, *cells]))
    return "\n".join(lines) + "\n"
