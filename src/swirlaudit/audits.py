"""Statistical and numerical audits of identifiability assumptions.

Given a paired pair of latent representations (the original sources ``Z`` and
the swirled alternates ``Z'``), the checks here probe, on samples, whether

* the maps from observations to each representation are continuous,
* the two representations carry the same information (each is an explicit
  continuous function of the other),
* both representations have compact support inside the canonical square,
* both satisfy the independent support condition (joint support equals the
  product of marginal supports), and
* the alternate representation is uniform on the square,

and finally whether the two representations are related by a permutation plus
coordinate-wise bijections.  :func:`audit_pair` records each premise as a
:class:`Premise` and bundles them with the conclusion into an
:class:`AuditReport`; a certified counterexample is a run where every premise
passes while the coordinate-wise-relation verdict fails.

None of the premise checks is a proof: continuity and support checks are
falsification audits, consistent-with rather than established-by samples.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from swirlaudit._worker import share_with_worker
from swirlaudit.errors import ConfigError, InvalidDomainError, PairingError, UndersampledError
from swirlaudit.transforms import (
    BLOCK_ROWS,
    HYPOT_FLOOR,
    HYPOT_MARGIN,
    SIGMA_PROXY_TOL,
    Dataset,
    Mixing2,
    MpaParams,
    apply_pipeline,
    integer_problem,
    mpa_forward,
    mpa_inverse,
    real_problem,
    sample_uniform_square,
    unmix,
)

__all__ = [
    "AuditSettings",
    "CoordRelationVerdict",
    "AssignmentScores",
    "Premise",
    "AuditReport",
    "COORDINATE_WISE",
    "NOT_COORDINATE_WISE",
    "check_continuity",
    "check_sigma_algebra_proxy",
    "check_compact_support",
    "check_independent_support",
    "check_uniformity",
    "check_coordinatewise_relation",
    "run_audit",
    "generate",
    "audit_pair",
    "bounding_box",
    "SAMPLE_FLOORS",
    "sample_floor_misses",
]

COORDINATE_WISE = "coordinate-wise"
NOT_COORDINATE_WISE = "not-coordinate-wise"

# Slack allowed when testing empirical support containment.
BOX_SLACK = 1e-9

# Displacement used by the continuity sweep.
CONTINUITY_DELTA = 1e-7

# Occupancy threshold per histogram cell when estimating supports.
MIN_COUNT = 5

# The canonical square that both representations must be supported in.
_SQUARE = ((-1.0, 1.0), (-1.0, 1.0))

_PERMUTATIONS = ((0, 1), (1, 0))


@dataclass(frozen=True)
class AuditSettings:
    """The audit's bins and thresholds, each default and valid range written here once.
    Settings out of range raise one :class:`ConfigError`, naming each, when made."""

    bins_support: int = 10
    bins_uniformity: int = 10
    bins_relation: int = 50
    functional_threshold: float = 0.01
    alpha: float = 0.001
    l_max: float = 100.0

    def __post_init__(self):
        problems = self._problems()
        if problems:
            raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
        # numpy scalars, paths and lists pass the rules; store what JSON writes, by kind
        plain = {int: int, float: float, bool: bool, str: os.fspath,
                 tuple: lambda entries: tuple(map(float, entries))}
        for f in fields(self):
            if store := plain.get(type(f.default)):
                object.__setattr__(self, f.name, store(getattr(self, f.name)))

    def _problems(self) -> list[str]:
        """One message per invalid field, led by the field's name."""
        problems = [problem for name in ("bins_support", "bins_uniformity", "bins_relation")
                    if (problem := integer_problem(name, getattr(self, name), 2))]
        for name, rule, upper in (("functional_threshold", "must lie in (0, 1)", 1.0),
                                  ("alpha", "must lie in (0, 1)", 1.0),
                                  ("l_max", "must be positive and finite", math.inf)):
            value = getattr(self, name)
            if problem := real_problem(name, value):
                problems.append(problem)
            elif not 0.0 < value < upper:
                problems.append(f"{name}: {rule}, got {value}")
        return problems


# Every binned check's floor on n: the check's name in errors, the setting
# that holds its bins, and the smallest n those bins need.
SAMPLE_FLOORS = (
    # 5 * MIN_COUNT per cell, so that an empty cell can be called empty
    ("independent-support", "bins_support", lambda bins: bins * bins * MIN_COUNT * 5),
    # 5 expected counts per cell, the chi-square rule of thumb
    ("uniformity", "bins_uniformity", lambda bins: 5 * bins * bins),
    # 50 samples per equal-count bin
    ("relation", "bins_relation", lambda bins: 50 * bins),
)


def sample_floor_misses(n: int, bins: dict) -> list[tuple[str, str, int]]:
    """``(check, setting, required_n)`` for each floor of :data:`SAMPLE_FLOORS`
    that ``n`` misses; only the settings that ``bins`` holds are looked at."""
    return [(check, key, floor(bins[key])) for check, key, floor in SAMPLE_FLOORS
            if key in bins and n < floor(bins[key])]


def _require_samples(n: int, **bins: int) -> None:
    """Raise ``ValueError`` for the first bins value that is no bin count, then one
    :class:`UndersampledError` naming every floor ``n`` misses, the largest its ``required_n``."""
    for key, value in bins.items():
        if problem := integer_problem(key, value, 2):
            raise ValueError(problem)
    misses = sample_floor_misses(n, bins)
    if misses:
        raise UndersampledError(
            "\n  ".join(f"[{check}] needs n >= {required} for {key} = {bins[key]}, got n = {n}"
                        for check, key, required in misses),
            required_n=max(required for _, _, required in misses),
        )


def _require_paired(Z: Dataset, Zp: Dataset) -> None:
    """Raise :class:`PairingError` unless ``Z`` and ``Zp`` have the same number of rows."""
    if Z.n != Zp.n:
        raise PairingError(f"row-count mismatch: {Z.n} vs {Zp.n}")


def bounding_box(points: ArrayLike) -> NDArray[np.float64]:
    """Per-axis empirical bounds, shape (2, 2): ``[[lo1, hi1], [lo2, hi2]]``."""
    pts = np.asarray(points, dtype=np.float64)
    # Each column is reduced on its own, as an axis-0 reduction over the (n, 2) array is
    # several times slower; a Dataset's columns are contiguous, a row-major one's strided.
    return np.array([[pts[:, k].min(), pts[:, k].max()] for k in range(2)])


def _digitize(values: NDArray[np.float64], edges: NDArray[np.float64],
              scale: float) -> NDArray[np.intp]:
    """``np.digitize(values, edges)`` for finite values and increasing ``edges``, without
    its binary search: k, with ``edges[k - 1] <= v < edges[k]`` (0 below ``edges[0]``,
    ``len(edges)`` from ``edges[-1]`` on), is guessed as ``(v - edges[0]) * scale + 1``
    and moved where rounding put it on the wrong side of an edge.  With ``scale`` the
    number of bins per unit of ``v``, only rounding moves the guess; any other scale
    costs more moves, not another result."""
    bounds = np.concatenate(([-np.inf], edges, [np.inf]))
    lower, upper = bounds[:-1], bounds[1:]
    with np.errstate(over="ignore"):  # a guess that overflows is clipped to an end bin
        k = np.clip((values - edges[0]) * scale + 1.0, 0.0, len(edges)).astype(np.intp)
    wrong = np.flatnonzero((values < lower[k]) | (values >= upper[k]))
    while wrong.size:
        k[wrong] += np.where(values[wrong] < lower[k[wrong]], -1, 1)
        wrong = wrong[(values[wrong] < lower[k[wrong]]) | (values[wrong] >= upper[k[wrong]])]
    return k


def _grid_counts(points: NDArray[np.float64], bins: int, box) -> NDArray[np.float64]:
    """Numpy's 2-D histogram counts (floats) of ``points`` over ``box``, ``bins`` cells
    per axis, with :func:`_digitize` in place of its binary search; cells 0 and
    bins + 1 catch the outliers.  As there, ``hi`` counts in the last bin and a
    zero-width range grows 0.5 each way.  Cells narrower than a normal float, where
    the histogram's edges may run backwards, are refused.

    The points are binned :data:`~swirlaudit.transforms.BLOCK_ROWS` rows at a time
    and each block's counts are added, so the temporaries stay ~1 MB whatever the
    number of points; the counts are exact integers, whatever the blocks."""
    axes = []
    for lo, hi in np.asarray(box, float).tolist():  # a span that overflows is inf, unwarned
        lo, hi = (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)
        if not bins * np.finfo(np.float64).tiny <= hi - lo < np.inf:
            raise InvalidDomainError(
                f"range [{lo}, {hi}] is not finite, or too narrow for {bins} bins")
        edges = np.linspace(lo, hi, bins + 1)
        edges[-1] = np.nextafter(hi, np.inf)
        axes.append((edges, bins / (hi - lo)))
    counts = np.zeros((bins + 2) ** 2, dtype=np.intp)
    for start in range(0, len(points), BLOCK_ROWS):
        block = points[start:start + BLOCK_ROWS]
        flat = _digitize(block[:, 0], *axes[0])
        flat *= bins + 2
        flat += _digitize(block[:, 1], *axes[1])
        part = np.bincount(flat)
        counts[:part.size] += part
    return counts.reshape(bins + 2, bins + 2)[1:-1, 1:-1].astype(np.float64)


@dataclass(frozen=True)
class AssignmentScores:
    """Functional-dependence scores for one coordinate assignment.

    ``perm`` maps output coordinate ``j`` to the alternate-representation
    coordinate ``perm[j]``.  Each score, in either direction, is the share of one
    coordinate's rank spread left within equal-count bins of the other: about 1
    without dependence, and the floor ``F`` of :func:`check_coordinatewise_relation`
    for a strictly monotone one.
    """

    perm: tuple[int, int]
    zprime_to_z: tuple[float, float]
    z_to_zprime: tuple[float, float]

    @property
    def max_score(self) -> float:
        return max(*self.zprime_to_z, *self.z_to_zprime)


@dataclass(frozen=True)
class CoordRelationVerdict:
    """Outcome of the coordinate-wise-relation check.

    The best assignment is the first of ``assignments`` with the smallest
    ``max_score``.  ``verdict`` is ``coordinate-wise`` iff it keeps all four
    of its scores (two coordinates times two directions) at or below
    ``threshold``.  ``monotonicity`` annotates each coordinate of the best
    assignment with the sign of its rank correlation ("increasing",
    "decreasing", or "non-monotone").
    """

    threshold: float
    monotonicity: tuple[str, str]
    assignments: tuple[AssignmentScores, ...]

    @property
    def best_assignment(self) -> tuple[int, int]:
        return min(self.assignments, key=lambda a: a.max_score).perm

    @property
    def best_max_score(self) -> float:
        return min(a.max_score for a in self.assignments)

    @property
    def is_coordinate_wise(self) -> bool:
        return self.best_max_score <= self.threshold

    @property
    def verdict(self) -> str:
        return COORDINATE_WISE if self.is_coordinate_wise else NOT_COORDINATE_WISE


@dataclass(frozen=True)
class Premise:
    """One identifiability premise as checked on the samples.

    ``passed`` and ``statistic`` are None for a premise that could not be
    checked (continuity and sigma-algebra without analytic maps); such a
    premise never certifies.  ``detail`` holds the report keys that follow
    the four fixed ones: the ``note`` of an unchecked premise, or the
    empirical support ``box``.
    """

    name: str
    passed: bool | None
    statistic: float | None
    threshold: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AuditReport:
    """Pass/fail record for every identifiability premise plus the conclusion.

    Premises: continuity of both observation-to-latent maps, bidirectional
    reconstruction (shared information), compact support, and independent
    support of both representations.  ``counterexample_certified`` is True
    when all premises pass, the alternate representation looks uniform, and
    the conclusion check still finds no coordinate-wise relation.
    """

    premises: tuple[Premise, ...]
    uniformity_pvalue_zprime: float
    uniformity_alpha: float
    conclusion: CoordRelationVerdict

    @property
    def premises_pass(self) -> bool:
        return all(premise.passed for premise in self.premises)

    @property
    def uniformity_pass(self) -> bool:
        return self.uniformity_pvalue_zprime > self.uniformity_alpha

    @property
    def counterexample_certified(self) -> bool:
        return (
            self.premises_pass
            and self.uniformity_pass
            and not self.conclusion.is_coordinate_wise
        )


def check_continuity(
    transform: Callable[[NDArray[np.float64]], ArrayLike],
    domain_box: ArrayLike,
    n_pairs: int = 1000,
    seed: int | ArrayLike = 0,
    l_max: float = AuditSettings.l_max,
) -> tuple[bool, float]:
    """Scan for gross discontinuities of a planar map over a box.

    Samples ``n_pairs`` base points uniformly in ``domain_box`` and measures
    the displacement ratio ``|T(z + d) - T(z)| / |d|`` for a random direction
    ``d`` of length ``CONTINUITY_DELTA`` (1e-7).  Passes iff the largest
    observed ratio stays at or below ``l_max``.  This can falsify continuity
    (a jump crossed by some pair produces a ratio of order 1e7) but can never
    prove it, and it almost never sees a jump along a curve: a pair straddles
    the curve with probability ``(2 / pi) * length * 1e-7 / area`` of the box,
    ~6e-5 per sweep of 1000 pairs for the circle r = 0.9 behind the default
    shear mixing.  A map that rotates the disc r <= c by a fixed angle, a
    measure-preserving bijection that jumps on r = c, passes every premise in
    the swirl's place and is certified as a counterexample in 10 of 10 runs
    (n = 1e5 and 1e6).

    Returns
    -------
    (passed, max_ratio)
    """
    if problem := integer_problem("n_pairs", n_pairs, 100):
        raise ValueError(problem)
    box = np.asarray(domain_box, dtype=np.float64)
    if box.shape != (2, 2) or not np.all(np.isfinite(box)):
        raise InvalidDomainError(f"domain box must be finite with shape (2, 2), got {box!r}")
    widths = box[:, 1] - box[:, 0]
    if np.any(widths <= 0.0):
        raise InvalidDomainError(f"degenerate domain box, widths {widths}")
    rng = np.random.default_rng(seed)
    base = box[:, 0] + rng.random((n_pairs, 2)) * widths
    angles = rng.random(n_pairs) * 2.0 * np.pi
    offsets = CONTINUITY_DELTA * np.column_stack([np.cos(angles), np.sin(angles)])
    moved = np.asarray(transform(base + offsets), dtype=np.float64)
    here = np.asarray(transform(base), dtype=np.float64)
    ratios = np.hypot(*(moved - here).T) / CONTINUITY_DELTA
    max_ratio = float(ratios.max())
    return max_ratio <= l_max, max_ratio


def check_sigma_algebra_proxy(
    Z: Dataset,
    Zp: Dataset,
    fwd: Callable[[NDArray[np.float64]], ArrayLike],
    inv: Callable[[NDArray[np.float64]], ArrayLike],
) -> tuple[bool, float]:
    """Certify that two paired representations determine each other.

    Checks that the supplied analytic maps reconstruct each dataset from the
    other pointwise: ``fwd(Z_i) = Z'_i`` and ``inv(Z'_i) = Z_i`` within 1e-9.
    Mutual exact reconstruction through continuous maps is the sample-level
    surrogate for the two representations generating the same sigma-algebra.

    ``fwd`` and ``inv`` must be row-wise maps, each output row depending on its
    input row alone: they are applied to :data:`~swirlaudit.transforms.BLOCK_ROWS`
    rows at a time, so that no error array the size of the clouds is made.

    Returns
    -------
    (passed, max_error)
    """
    _require_paired(Z, Zp)
    max_err = float(max(_max_distance(fwd, Z.points, Zp.points),
                        _max_distance(inv, Zp.points, Z.points)))
    return max_err < SIGMA_PROXY_TOL, max_err


def _max_distance(f: Callable[[NDArray[np.float64]], ArrayLike], points: NDArray[np.float64],
                  targets: NDArray[np.float64]) -> np.float64:
    """Largest Euclidean distance ``np.hypot`` gives from ``f(points[i])`` to ``targets[i]``
    (NaN if any is), with ``f`` applied one block of rows at a time.

    ``np.hypot`` is called only on the rows whose squared distance comes within a
    relative :data:`~swirlaudit.transforms.HYPOT_MARGIN` of the block's largest;
    every other row is shorter.  A block whose largest square is NaN, infinite
    (overflow) or below :data:`~swirlaudit.transforms.HYPOT_FLOOR` takes every row.  A
    :class:`Dataset`'s blocks and their swirl are column-major: ``dx`` and ``dy`` are contiguous."""
    tops = []
    for start in range(0, len(points), BLOCK_ROWS):
        dx, dy = (np.asarray(f(points[start:start + BLOCK_ROWS]), dtype=np.float64)
                  - targets[start:start + BLOCK_ROWS]).T
        with np.errstate(over="ignore"):
            sq = dx * dx + dy * dy
        top = sq.max()
        if HYPOT_FLOOR <= top < np.inf:
            near = np.flatnonzero(sq >= top * (1.0 - HYPOT_MARGIN))
            dx, dy = dx[near], dy[near]
        tops.append(np.hypot(dx, dy).max())
    return np.max(tops)


def check_compact_support(
    D: Dataset, expected_box: ArrayLike
) -> tuple[bool, NDArray[np.float64]]:
    """Empirical bounding box containment within an expected box (plus slack).

    Returns
    -------
    (passed, empirical_box)
    """
    expected = np.asarray(expected_box, dtype=np.float64)
    box = bounding_box(D.points)
    passed = bool(np.all(box[:, 0] >= expected[:, 0] - BOX_SLACK)
                  and np.all(box[:, 1] <= expected[:, 1] + BOX_SLACK))
    return passed, box


def check_independent_support(D: Dataset, bins: int) -> tuple[bool, float]:
    """Test whether the joint support factorizes into its marginal supports.

    Builds an occupancy grid over the empirical bounding box, a cell being
    occupied when it holds ``MIN_COUNT`` (5) samples, and passes iff
    every cell of the product of occupied marginal cells is itself occupied.
    The returned fraction is the share of product cells that are occupied;
    data supported on a rectangle gives 1.0, a disk leaves its corner product
    cells empty and fails.

    Raises
    ------
    UndersampledError
        If ``n`` misses its :data:`SAMPLE_FLOORS` row (25 samples per cell), too few
        to call empty cells empty with any confidence.
    """
    _require_samples(D.n, bins_support=bins)
    counts = _grid_counts(D.points, bins, bounding_box(D.points))
    # marginal occupancy comes from the marginal counts, so it covers every occupied joint cell
    product = np.outer(counts.sum(axis=1) >= MIN_COUNT, counts.sum(axis=0) >= MIN_COUNT)
    fraction = float((counts[product] >= MIN_COUNT).mean())
    return fraction == 1.0, fraction


def _log_poisson_term(nu: float, y: float) -> float:
    """``log(y**nu exp(-y) / Gamma(nu + 1))`` for ``nu >= 0`` and ``y > 0``.

    From ``nu = 16`` on this is Loader's saddle-point form
    ``-nu (u - log1p(u)) - log(2 pi nu) / 2 - stirlerr(nu)`` with
    ``y = nu (1 + u)`` and ``stirlerr(nu) = lgamma(nu + 1) - (nu + 1/2) log(nu)
    + nu - log(2 pi) / 2`` from five terms of Stirling's series (the first term
    left out is ~1e-16 at ``nu = 16``).  Its parts do not cancel when ``y`` is
    near ``nu``, where the direct sum of ``nu log(y)``, ``-y`` and
    ``-lgamma(nu + 1)`` would lose ``log10(nu)`` digits.
    """
    if nu < 16:
        return nu * math.log(y) - y - math.lgamma(nu + 1)
    u = (y - nu) / nu
    deviance = u - math.log1p(u) if u > -1.0 else math.inf  # y / nu below 2**-53
    s = 1.0 / (nu * nu)
    stirlerr = (1 / 12 - s * (1 / 360 - s * (1 / 1260 - s * (1 / 1680 - s / 1188)))) / nu
    return -nu * deviance - 0.5 * math.log(2 * math.pi * nu) - stirlerr


def _chi2_sf(k: int, x: float) -> float:
    """``P(chi2_k > x)``, the chi-square survival function, for ``k >= 1`` degrees of freedom.

    With ``y = x/2`` and ``m = k // 2`` this is ``Q(k/2, y)``, the regularized
    upper incomplete gamma function.  Let ``t_j = y**b_j exp(-y) / Gamma(b_j + 1)``
    with ``b_j = j`` for even ``k`` and ``b_j = j + 1/2`` for odd ``k``.  Then
    ``Q = sum_{j < m} t_j`` (plus ``erfc(sqrt(y))`` for odd ``k``) and
    ``1 - Q = sum_{j >= m} t_j``: sums of positive terms, so nothing cancels.
    Below the mean (``y < k/2``) the second sum is taken and subtracted from 1,
    so that ``Q`` near 1 is exact to rounding and never exceeds 1.  Either way
    the largest term is the one next to ``j = m``; it comes from
    :func:`_log_poisson_term`, and the sum walks away from it with
    ``t_{j+1} / t_j = y / (b_j + 1)`` until a term no longer changes the
    total.  That visits ``O(sqrt(k))`` terms in ``O(1)`` memory.  NaN gives
    NaN, ``x <= 0`` gives 1 and ``x = inf`` gives 0.
    """
    if math.isnan(x):
        return math.nan
    y = 0.5 * x
    if y <= 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    m, odd = divmod(k, 2)
    offset = 0.5 * odd
    total = term = 1.0
    if y < m + offset:
        nu = b = m + offset
        while True:
            b += 1
            term *= y / b
            if total + term == total:
                break
            total += term
        return 1.0 - total * math.exp(_log_poisson_term(nu, y))
    upper = 0.0
    if m:
        for j in range(m - 1, 0, -1):
            term *= (j + offset) / y
            if total + term == total:
                break
            total += term
        upper = total * math.exp(_log_poisson_term(m - 1 + offset, y))
    return upper + math.erfc(math.sqrt(y)) if odd else upper


def check_uniformity(D: Dataset, bins: int) -> float:
    """Pearson chi-square goodness of fit against Unif on the square ``[-1, 1]^2``.

    The square is cut into ``bins x bins`` equal cells; each has null
    probability ``1/bins**2``.  Samples falling outside the square deplete the
    observed counts and push the statistic up, as they should under this
    null.  Returns the p-value ``P(chi2_k > statistic)`` with ``k = bins**2 - 1``
    degrees of freedom, from the exact finite series of :func:`_chi2_sf`.

    Raises
    ------
    UndersampledError
        If ``n`` misses its :data:`SAMPLE_FLOORS` row (rule of thumb for
        chi-square validity).
    """
    _require_samples(D.n, bins_uniformity=bins)
    counts = _grid_counts(D.points, bins, _SQUARE)
    expected = D.n / (bins * bins)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    return _chi2_sf(bins * bins - 1, statistic)


# A float64's bits but its sign; see _float_keys.
_MAGNITUDE = 0x7FFF_FFFF_FFFF_FFFF


def _float_keys(values: NDArray[np.float64], out: NDArray[np.int64] | None = None
                ) -> NDArray[np.int64]:
    """Each float64's bits as an int64 that sorts as the float does, NaN aside: its
    magnitude bits, negated for a float with the sign bit, so -0.0 and 0.0 share the key
    0.  ``out``, if given, receives the keys."""
    bits = values.view(np.int64)
    signs = bits >> 63  # -1 for the sign bit, else 0
    keys = np.bitwise_and(bits, _MAGNITUDE, out=out)
    keys ^= signs
    keys -= signs
    return keys


def _packed_keys(values: NDArray[np.float64], shift: int) -> NDArray[np.int64]:
    """The sorted packed keys of :func:`_sort_order`: each row's :func:`_float_keys` key
    with its low ``shift`` bits replaced by the row's number, made a block of rows at a
    time and sorted in place."""
    keys = np.empty(values.size, dtype=np.int64)
    for start in range(0, values.size, BLOCK_ROWS):
        block = _float_keys(values[start:start + BLOCK_ROWS], out=keys[start:start + BLOCK_ROWS])
        block &= -1 << shift
        block |= np.arange(start, start + block.size)
    keys.sort()
    return keys


def _sort_order(values: NDArray[np.float64]) -> tuple[NDArray[np.intp], bool]:
    """The stable ascending order of float64 ``values``, equal to
    ``np.argsort(values, kind="stable")``, and whether the ordered values strictly
    increase, from one sort of packed int64 keys.  The values hold no NaN (numpy puts
    every NaN last, their keys would not) and number at most ``2**31`` (see
    :func:`_sort_runs`); every caller sorts finite values, such as a :class:`Dataset`'s
    contiguous column, reversed (a negative stride) when the column has ties.

    Each row's :func:`_float_keys` key keeps its top ``64 - b`` bits, with
    ``b = (n - 1).bit_length()``, and takes the row's number in its low ``b`` bits.  One
    ``np.sort`` of these packed keys puts the rows in the order of their values, rows that
    share their key's top bits in the order of their numbers; the low bits are then the
    order.  Only such a run of shared top bits can be out of order, and a run in which a
    larger key comes before a smaller one is put in the order of (key, row), which is the
    stable order of its values, by :func:`_sort_runs`.  A run of equal values is in that
    order already.  The keys are made and scanned a block of rows at a time, so the order
    is the one full-length array.
    """
    n = values.size
    shift = max(n - 1, 0).bit_length()
    low = (1 << shift) - 1  # the bits that hold the row number
    keys = _packed_keys(values, shift)
    distinct = True
    for start in range(0, n - 1, BLOCK_ROWS):
        pairs = keys[start:start + BLOCK_ROWS + 1]  # each block and the next row
        tops = pairs >> shift
        near = np.flatnonzero(tops[1:] == tops[:-1])
        if near.size:
            left, right = (_float_keys(values[pairs[near + side] & low]) for side in (0, 1))
            distinct &= not np.any(left == right)
            wrong = left > right
            if wrong.any():
                distinct &= _sort_runs(values, keys, tops[near[wrong]], shift)
    keys &= low
    return keys, distinct


def _sort_runs(values: NDArray[np.float64], keys: NDArray[np.int64], tops: NDArray[np.int64],
               shift: int) -> bool:
    """Put each run of sorted packed ``keys`` (see :func:`_sort_order`) whose top bits
    are one of ``tops`` in the stable order of its rows' values, and say whether those
    values are distinct.  A run can be out of order, but every key of it lies between
    those of the runs before and after, so the runs are found by binary search.

    The runs all meet one block of rows, so those of at most ``BLOCK_ROWS`` rows hold
    at most ``3 * BLOCK_ROWS`` together: they are gathered, put in order by one stable
    argsort of their values' keys, and scattered back.  A longer run is sorted in place.
    Its keys share their top bits, so, a block of rows at a time, each is rewritten as
    its value's key's low ``b`` bits above its row number: sorted, these are in the order
    of (value, row), equal values share their high bits, and the run's top bits are then
    put back above the row numbers, so that later runs are still found by binary search.
    That needs ``2 * b <= 62``: n at most ``2**31``."""
    low = (1 << shift) - 1
    tops = tops[np.append(True, tops[1:] != tops[:-1])] << shift  # sorted, so repeats are adjacent
    firsts = np.searchsorted(keys, tops)
    sizes = np.searchsorted(keys, tops | low, side="right") - firsts
    short = sizes <= BLOCK_ROWS
    distinct = True
    for top, first, size in zip(tops[~short].tolist(), firsts[~short].tolist(),
                                sizes[~short].tolist()):
        run = keys[first:first + size]
        for start in range(0, size, BLOCK_ROWS):
            block = run[start:start + BLOCK_ROWS]
            rows = block & low
            _float_keys(values[rows], out=block)
            block &= low
            block <<= shift
            block |= rows
        run.sort()
        for start in range(0, size, BLOCK_ROWS):
            high = run[start:start + BLOCK_ROWS + 1] >> shift  # each block and the next row
            distinct &= not np.any(high[1:] == high[:-1])
            block = run[start:start + BLOCK_ROWS]
            block &= low
            block |= top
    sizes = sizes[short]
    places = np.repeat(firsts[short] - (np.cumsum(sizes) - sizes), sizes)
    places += np.arange(places.size)
    run = keys[places]
    ordered = _float_keys(values[run & low])
    by_value = np.argsort(ordered, kind="stable")  # the runs are in key order already
    keys[places] = run[by_value]
    ordered = ordered[by_value]
    return distinct and not np.any(ordered[1:] == ordered[:-1])


def _places(order: NDArray[np.intp]) -> NDArray[np.int32]:
    """Each row's place in ``order``, as int32, scattered a block of rows at a time."""
    places = np.empty(order.size, dtype=np.int32)
    for start in range(0, order.size, BLOCK_ROWS):
        rows = order[start:start + BLOCK_ROWS]
        places[rows] = np.arange(start, start + rows.size, dtype=np.int32)
    return places


def _doubled_ranks(values: NDArray) -> tuple[NDArray[np.int32], bool, int]:
    """Twice the 1-based ranks of ``values``, tied values sharing their mean rank;
    whether the values are distinct; and the ranks' spread ``sum((ranks - n - 1)**2)``
    about their mean, exactly.  Doubled, a mean rank is a whole number, and int32 holds
    it for n up to about 1e9.  Distinct values' ranks are twice their places plus 2, with
    spread ``(n**3 - n) / 3``.  A run of equal values at places ``f`` to ``l`` takes
    ``f + l + 2``: its row with the j-th smallest number is at place ``f + j`` in the
    stable order of the values, and at ``l - j`` in that of the reversed values."""
    order, distinct = _sort_order(values)
    n = order.size
    ranks = _places(order)
    del order  # one sort order alive at a time
    if distinct:
        ranks *= 2
    else:
        ranks += _places(_sort_order(values[::-1])[0])[::-1]
    ranks += 2
    return ranks, distinct, (n * n - 1) * n // 3 if distinct else _rank_dot(ranks, ranks)


def _rank_dot(x: NDArray[np.int32], y: NDArray[np.int32]) -> int:
    """``sum((x - n - 1) * (y - n - 1))`` of two columns of ``n`` doubled ranks, exactly:
    doubled ranks sum to ``n * (n + 1)``, so it is ``sum(x * y) - n * (n + 1)**2``.  Each
    product is at most ``4 * n**2``, so the int64 sums of blocks of rows that hold no
    more than ``2**63 // (4 * n**2)`` of them cannot wrap, and Python adds those sums."""
    n = x.size
    rows = min(BLOCK_ROWS, max(1, (2**63 - 1) // (4 * n * n)))
    total = sum(int(np.dot(x[start:start + rows].astype(np.int64), y[start:start + rows]))
                for start in range(0, n, rows))
    return total - n * (n + 1) ** 2


def _stable_places(ranks: NDArray[np.int32], distinct: bool) -> NDArray:
    """Each row's place in the stable order of the values that :func:`_doubled_ranks`
    ranked ``ranks``: as intp for distinct values, which numpy would cast int32 indices
    to at each use, and else as int32, from one sort of int64 keys ``((ranks // 2 - 1)
    << b) | row`` made in place, ``b = (n - 1).bit_length()``.  Runs of tied values
    differ in doubled rank by at least 2, so ``ranks // 2 - 1 < n`` keeps their order."""
    places = np.floor_divide(ranks, 2, dtype=np.intp)
    places -= 1
    if distinct:
        return places
    shift = max(places.size - 1, 0).bit_length()
    places <<= shift
    for start in range(0, places.size, BLOCK_ROWS):
        places[start:start + BLOCK_ROWS] |= np.arange(start, min(start + BLOCK_ROWS, places.size))
    places.sort()
    places &= (1 << shift) - 1
    return _places(places)


def _within_bin_share(ranks: NDArray[np.int32], spread: int, places: NDArray, bins: int) -> float:
    """The share of the ``spread`` of doubled ``ranks`` that lies within ``bins`` runs of
    consecutive ``places`` (row i's rank moved to ``places[i]``), cut as ``np.array_split``
    cuts them; 0.0 without spread.  That is the spread less ``sum(S**2 / s)`` over each
    run's size ``s`` and the sum ``S`` of its ranks less their mean, all in integers.
    The ranks are moved a block of rows at a time, and each run's sum is taken in int64
    from its own rows, so no int64 copy of the column is made."""
    n, (size, extra) = ranks.size, divmod(ranks.size, int(bins))  # Python integers
    ordered = np.empty_like(ranks)
    for start in range(0, n, BLOCK_ROWS):
        ordered[places[start:start + BLOCK_ROWS]] = ranks[start:start + BLOCK_ROWS]
    cut = extra * (size + 1)  # the first extra runs hold size + 1 places, the rest size
    sums = np.concatenate([ordered[:cut].reshape(extra, size + 1).sum(axis=1, dtype=np.int64),
                           ordered[cut:].reshape(bins - extra, size).sum(axis=1, dtype=np.int64)])
    sizes = np.repeat([size + 1, size], [extra, bins - extra])
    sums -= (n + 1) * sizes
    # sum(S**2 / s) times size * (size + 1), each s being size or size + 1
    between = sum(S * S * (2 * size + 1 - s) for S, s in zip(sums.tolist(), sizes.tolist()))
    scale = spread * size * (size + 1)
    return (scale - between) / scale if spread else 0.0


def _correlation(x: NDArray[np.int32], y: NDArray[np.int32], spread_x: int, spread_y: int) -> float:
    """Spearman's rho of two columns, given their :func:`_doubled_ranks` and spreads;
    NaN when either column is constant.  It is their exact cross sum over the square
    root of the spreads' product, the root taken in integers 64 bits past its units and
    the quotient rounded once, so within an ulp of the exact rho."""
    if not (spread_x and spread_y):
        return math.nan
    return (_rank_dot(x, y) << 64) / math.isqrt(spread_x * spread_y << 128)


def _monotonicity_note(rho: float) -> str:
    return "increasing" if rho >= 0.95 else "decreasing" if rho <= -0.95 else "non-monotone"


def check_coordinatewise_relation(
    Z: Dataset, Zp: Dataset, bins: int = AuditSettings.bins_relation,
    threshold: float = AuditSettings.functional_threshold,
) -> CoordRelationVerdict:
    """Decide whether two paired representations are coordinate-wise related.

    Each coordinate is ranked, tied values sharing their mean rank.  For each of the two
    coordinate assignments and each output coordinate ``j``, the forward score cuts the rows
    into ``bins`` equal-count bins along ``Z'_{perm[j]}`` and is the share of the spread of
    ``Z_j``'s ranks left within the bins; the reverse score bins along ``Z_j`` and ranks
    ``Z'_{perm[j]}``.  For distinct values no score is below the floor
    ``F = sum(s * (s**2 - 1)) / (n * (n**2 - 1))`` over the bin sizes ``s`` (about
    ``1/bins**2``), and a score is ``F`` iff each bin holds one block of consecutive ranks,
    as under any strictly monotone coordinate-wise map.  Requiring both directions rules out
    many-to-one dependence.  The verdict is ``coordinate-wise`` iff some assignment keeps all
    four scores at or below ``threshold``.

    Raises
    ------
    PairingError
        If the datasets differ in length.
    UndersampledError
        If ``n`` misses its :data:`SAMPLE_FLOORS` row (50 per bin).
    """
    _require_paired(Z, Zp)
    _require_samples(Z.n, bins_relation=bins)
    columns = (*Z.points.T, *Zp.points.T)  # Z_0, Z_1, Z'_0, Z'_1
    ranks, distinct, spreads = zip(*map(_doubled_ranks, columns))  # one sort order alive at a time
    # share[b, d]: column d's ranks binned along column b, a Z column along a Z' one or back
    share = {}
    for b in range(4):
        places = _stable_places(ranks[b], distinct[b])
        for d in ((2, 3) if b < 2 else (0, 1)):
            share[b, d] = _within_bin_share(ranks[d], spreads[d], places, bins)
        del places  # one places array alive at a time
    scored = [AssignmentScores(perm, zprime_to_z=(share[2 + perm[0], 0], share[2 + perm[1], 1]),
                               z_to_zprime=(share[0, 2 + perm[0]], share[1, 2 + perm[1]]))
              for perm in _PERMUTATIONS]
    best = min(scored, key=lambda a: a.max_score)
    return CoordRelationVerdict(
        threshold=threshold,
        monotonicity=tuple(_monotonicity_note(_correlation(ranks[2 + k], ranks[j], spreads[2 + k],
                                                           spreads[j]))
                           for j, k in enumerate(best.perm)),
        assignments=tuple(scored),
    )


def generate(A: Mixing2, p: MpaParams, n: int, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Draw ``n`` uniform latents and push them through the mixing and the swirl.

    Returns the paired datasets ``(Z, X, Z')``; :func:`audit_pair` audits
    ``Z`` and ``Z'`` with ``maps=(A, p, X)``.
    """
    Z = sample_uniform_square(n, seed)
    X, Zp = apply_pipeline(A, p, Z)
    return Z, X, Zp


def run_audit(A: Mixing2, p: MpaParams, n: int, seed: int, **options) -> AuditReport:
    """Run the full generative pipeline and every audit on one sample.

    Draws ``n`` uniform latents, pushes them through the mixing and the
    swirl, and checks all premises before the coordinate-wise-relation
    conclusion.  ``options`` are the fields of :class:`AuditSettings`, checked
    before anything is sampled.  With a nondegenerate swirl the expected
    outcome is that all premises pass, the alternate latents look uniform,
    and the conclusion is ``not-coordinate-wise``: a certified counterexample.
    """
    settings = AuditSettings(**options)
    Z, X, Zp = generate(A, p, n, seed)
    return audit_pair(Z, Zp, maps=(A, p, X), settings=settings)


def _report_tasks(Z: Dataset, Zp: Dataset, maps: tuple[Mixing2, MpaParams, Dataset] | None,
                  settings: AuditSettings) -> list[Callable[[], Premise | float]]:
    """Every check of :func:`audit_pair` but the relation, one task per entry of its
    report and in the report's order: continuity (both sweeps, on X's bounding box),
    sigma-algebra, compact support (both clouds), each cloud's support grid, each
    returning its :class:`Premise`, and last the uniformity p-value of ``Z'``.
    Without ``maps`` the first two are the unchecked premises."""
    if maps is None:
        note = {"note": "not-applicable: no analytic maps supplied"}
        map_tasks = [partial(Premise, "continuity", None, None, settings.l_max, note),
                     partial(Premise, "sigma-algebra", None, None, SIGMA_PROXY_TOL, note)]
    else:
        A, p, X = maps

        def continuity() -> Premise:
            box = bounding_box(X.points)
            (f_pass, f_ratio), (fp_pass, fp_ratio) = (
                check_continuity(f, box, seed=[Z.seed, stream], l_max=settings.l_max)
                for stream, f in ((1, lambda x: unmix(A, x)),
                                  (2, lambda x: mpa_forward(p, unmix(A, x)))))
            return Premise("continuity", f_pass and fp_pass, max(f_ratio, fp_ratio),
                           settings.l_max)

        def sigma_algebra() -> Premise:
            passed, error = check_sigma_algebra_proxy(Z, Zp, lambda z: mpa_forward(p, z),
                                                      lambda zp: mpa_inverse(p, zp))
            return Premise("sigma-algebra", passed, error, SIGMA_PROXY_TOL)

        map_tasks = [continuity, sigma_algebra]

    def compact_support() -> Premise:
        (z_ok, z_box), (zp_ok, zp_box) = (check_compact_support(D, _SQUARE) for D in (Z, Zp))
        union_box = np.column_stack(
            [np.minimum(z_box[:, 0], zp_box[:, 0]), np.maximum(z_box[:, 1], zp_box[:, 1])]
        )
        square = np.array(_SQUARE)  # the statistic: how far the union box reaches past it
        overshoot = max((square[:, 0] - union_box[:, 0]).max(),
                        (union_box[:, 1] - square[:, 1]).max())
        return Premise("compact-support", z_ok and zp_ok, float(overshoot),
                       BOX_SLACK, {"box": union_box.tolist()})

    bins = settings.bins_support
    return [
        *map_tasks,
        compact_support,
        lambda: Premise("independent-support-Z", *check_independent_support(Z, bins), 1.0),
        lambda: Premise("independent-support-Zprime", *check_independent_support(Zp, bins), 1.0),
        lambda: check_uniformity(Zp, settings.bins_uniformity),
    ]


def audit_pair(
    Z: Dataset,
    Zp: Dataset,
    *,
    maps: tuple[Mixing2, MpaParams, Dataset] | None = None,
    settings: AuditSettings = AuditSettings(),
) -> AuditReport:
    """Check every premise and the conclusion on the paired datasets ``Z`` and ``Z'``.

    ``maps`` is ``(A, p, X)`` when the analytic maps exist: the mixing, the
    swirl and the observations that :func:`generate` made along with ``Z``
    and ``Z'``.  The continuity and sigma-algebra premises need them;
    without them both are recorded unchecked (``passed=None``), so the
    report cannot certify.  The continuity sweeps are seeded from
    ``Z.seed``, so auditing the output of ``generate(A, p, n, seed)`` gives
    exactly ``run_audit(A, p, n, seed)``.  ``settings`` holds the bins and
    thresholds; a :class:`~swirlaudit.config.RunConfig` is one.

    The input is checked before the first check runs: unpaired clouds raise
    :class:`PairingError`, and an ``n`` below any floor of :data:`SAMPLE_FLOORS`
    raises one :class:`UndersampledError` that names every floor missed.

    The relation check runs on this thread, and every other check is a task of
    :func:`~swirlaudit._worker.share_with_worker`, one per report entry (:func:`_report_tasks`).
    Every check is a pure function of the read-only clouds, so the report is the one a
    single thread makes.  The relation check's temporaries, the audit's largest, come from
    the heap that made the clouds; the other checks' stay small on either thread, since
    they work in blocks of rows.
    """
    _require_paired(Z, Zp)
    _require_samples(Z.n, **{key: getattr(settings, key) for _, key, _ in SAMPLE_FLOORS})
    conclusion, (*premises, pvalue) = share_with_worker(
        _report_tasks(Z, Zp, maps, settings),
        lambda: check_coordinatewise_relation(Z, Zp, bins=settings.bins_relation,
                                              threshold=settings.functional_threshold))
    return AuditReport(tuple(premises), pvalue, settings.alpha, conclusion)
