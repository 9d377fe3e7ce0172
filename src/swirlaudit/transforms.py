"""Generative pipeline for a 2-D latent model with a radius-dependent swirl.

Latent sources are uniform on the square ``[-1, 1]^2``, observations are an
invertible linear mixing of the sources, and an alternate latent
representation is obtained by applying a radius-dependent rotation (a
measure-preserving automorphism of the square) behind the mixing.  Every map
in the pipeline has an exact analytic inverse; the statistical audits in
:mod:`swirlaudit.audits` lean on that.

All operations are pure functions of their inputs and vectorize over arrays
of points with shape ``(..., 2)``.  Datasets are immutable once created, so
everything here is safe to evaluate in parallel.  :func:`apply_pipeline` shares
the swirl with one worker thread, which :func:`~swirlaudit._worker.share_with_worker`
joins before it returns, and the mixing multiplies blocks of rows, so that no call
here leaves a thread running, OpenBLAS's pool included.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from swirlaudit._worker import share_with_worker
from swirlaudit.errors import (
    EmptyDatasetError,
    IllConditionedPointError,
    InvalidPointError,
    LabelMismatchError,
)

__all__ = [
    "LATENT_Z",
    "OBSERVED_X",
    "LATENT_ZPRIME",
    "DATASET_LABELS",
    "DET_EPSILON",
    "SIGMA_PROXY_TOL",
    "MpaParams",
    "Mixing2",
    "Dataset",
    "sample_uniform_square",
    "sample_uniform_disk",
    "mix",
    "unmix",
    "mpa_forward",
    "mpa_inverse",
    "apply_pipeline",
    "jacobian_det_fd",
]

# Dataset provenance labels.
LATENT_Z = "latent-Z"
OBSERVED_X = "observed-X"
LATENT_ZPRIME = "latent-Zprime"
DATASET_LABELS = frozenset({LATENT_Z, OBSERVED_X, LATENT_ZPRIME})

# Mixing matrices with |det| at or below this are rejected as numerically
# singular.
DET_EPSILON = 1e-9

# A * A^{-1} must reproduce the identity at least this well, entrywise.
_INVERSE_TOL = 1e-12

# Largest error allowed when one latent representation is rebuilt from the
# other: the audit's sigma-algebra premise, and the most that the mixing's
# round trip unmix(mix(z)) may lose on the square.
SIGMA_PROXY_TOL = 1e-9

# On the square, unmix(mix(z)) stays within this many eps * || |A^-1| |A| ||_inf
# of z: each product rounds within 2 eps of |A^-1| |A| |z|, and the rounded det
# inside the adjugate inverse within eps of the same (measured: at most 1.95).
_ROUND_TRIP_FACTOR = 8

# Rows per block of the swirl, of the audit checks and of the SVG writer: small
# enough that a block's temporaries stay in cache.
BLOCK_ROWS = 16384

# np.hypot calls libm once per value, so the swirl's cutoff and the sigma-algebra
# premise's largest distance call it only where x*x + y*y cannot decide: squares
# are within a few ulp of the exact ones and hypot within 1 ulp, so a square past a
# bound by more than a relative HYPOT_MARGIN decides its row whatever either rounds
# to.  Below HYPOT_FLOOR, subnormal squares lose that precision.
HYPOT_MARGIN = 2.0**-40
HYPOT_FLOOR = 2.0**-960


def _as_points(z: ArrayLike, *, what: str = "point") -> NDArray[np.float64]:
    """Coerce to a float64 array with trailing axis of length 2."""
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise InvalidPointError(
            f"{what} must have a trailing axis of length 2, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError(f"{what} contains NaN or infinite coordinates")
    return arr


def integer_problem(key: str, value, lowest: int) -> str | None:
    """Why ``value`` is no integer ``>= lowest`` (a bool is none), led by ``key``; else None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return f"{key}: must be an integer, got {value!r}"
    return f"{key}: must be >= {lowest}, got {value}" if value < lowest else None


def real_problem(key: str, value) -> str | None:
    """Why ``value`` is no real number (a bool is none), led by ``key``; else None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"{key}: must be a real number, got {value!r}"
    return None


def swirl_problems(a, c, degenerate: bool) -> list[str]:
    """One message per rule that the swirl's ``a`` and ``c`` break, led by the key it names."""
    problems = [problem for key, value in (("a", a), ("c", c))
                if (problem := real_problem(key, value))]
    if problems:
        return problems
    if not 0.0 < c < 1.0:
        problems.append(f"c: must lie in the open interval (0, 1), got {c}")
    if a == 0.0 and not degenerate:
        problems.append("a: must be nonzero (a != 0)")
    if degenerate and a != 0.0:
        problems.append(f"a: degenerate_a requires a = 0, got {a}")
    if not (np.isfinite(a) and np.isfinite(c)):
        problems.append("a, c: must be finite")
    return problems


@dataclass(frozen=True)
class MpaParams:
    """Parameters of the radius-dependent rotation ("swirl").

    Points with radius at most ``c`` are rotated about the origin by the
    angle ``a * (radius - c)`` radians; points outside are left untouched.

    Attributes
    ----------
    a : float
        Rotation rate in radians per unit radius.  Must be nonzero; a zero
        rate collapses the swirl to the identity and is only allowed through
        :meth:`degenerate_fixture` (used by tests as a negative control).
    c : float
        Cutoff radius, strictly inside ``(0, 1)``.
    degenerate : bool
        True only for the ``a == 0`` fixture.
    """

    a: float
    c: float
    degenerate: bool = False

    def __post_init__(self):
        problems = swirl_problems(self.a, self.c, self.degenerate)
        if problems:
            raise ValueError("; ".join(problems))

    @classmethod
    def degenerate_fixture(cls, c: float = 0.9) -> "MpaParams":
        """Identity swirl (``a = 0``); a negative control for audits."""
        return cls(a=0.0, c=c, degenerate=True)


@dataclass(frozen=True)
class Mixing2:
    """Invertible 2x2 mixing matrix with a cached exact inverse.

    Construction rejects near-singular matrices (``|det| <= 1e-9``), verifies
    ``A @ A^{-1} = I`` to 1e-12 entrywise, and rejects matrices whose round
    trip ``unmix(mix(z))`` may move a point of the square by more than
    ``SIGMA_PROXY_TOL``, since the audit could not tell that from the swirl, and
    matrices that map the square past a quarter of the largest float.
    The inverse is computed with the closed-form adjugate formula, so
    ``unmix`` is deterministic and as accurate as the conditioning allows.
    """

    matrix: NDArray[np.float64]
    det: float = field(init=False)
    inverse: NDArray[np.float64] = field(init=False)

    def __post_init__(self):
        a = np.array(self.matrix, dtype=np.float64)
        if a.shape != (2, 2):
            raise ValueError(f"mixing matrix must be 2x2, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("mixing matrix must be finite")
        with np.errstate(all="ignore"):  # a det or inverse that overflows fails the checks below
            det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
            inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
            inverts = np.allclose(a @ inv, np.eye(2), rtol=0.0, atol=_INVERSE_TOL)
            reach = float(np.abs(a).sum(axis=1).max())  # the largest |x| on the square
        if abs(det) <= DET_EPSILON:
            raise ValueError(
                f"mixing matrix is numerically singular: |det| = {abs(det):.3e} <= {DET_EPSILON}"
            )
        if not inverts:
            raise ValueError(
                "mixing matrix too ill-conditioned: A @ inv(A) deviates from I by more "
                f"than {_INVERSE_TOL}"
            )
        skeel = float((np.abs(inv) @ np.abs(a)).sum(axis=1).max())
        round_trip = _ROUND_TRIP_FACTOR * np.finfo(np.float64).eps * skeel
        if round_trip > SIGMA_PROXY_TOL:
            raise ValueError(
                "mixing matrix too ill-conditioned for the audit: unmix(mix(z)) may be off by "
                f"{round_trip:.3e} > {SIGMA_PROXY_TOL} on the square"
            )
        if not np.isfinite(4.0 * reach):  # the sweep's box and the SVG's offsets reach 2x as far
            raise ValueError(f"mixing matrix too large: |x| reaches {reach:.3e} on the square")
        a.flags.writeable = False
        inv.flags.writeable = False
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "inverse", inv)

    @classmethod
    def from_rows(cls, a11: float, a12: float, a21: float, a22: float) -> "Mixing2":
        return cls(np.array([[a11, a12], [a21, a22]], dtype=np.float64))


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of 2-D points with provenance.

    Attributes
    ----------
    points : ndarray, shape (n, 2)
        Sample coordinates (read-only), a copy of the input stored column by column
        (Fortran order), so that each coordinate ``points[:, k]`` is contiguous.
    label : str
        One of ``latent-Z``, ``observed-X``, ``latent-Zprime``.
    seed : int
        Seed of the generator run that produced the samples (datasets derived
        from another dataset inherit its seed; externally loaded clouds use 0).
    n : int
        Number of points; always ``len(points)`` and at least 1.
    """

    points: NDArray[np.float64]
    label: str
    seed: int
    n: int = field(init=False)

    def __post_init__(self):
        pts = _as_points(self.points, what="dataset").copy(order="F")
        if pts.ndim != 2:
            raise InvalidPointError(f"dataset points must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] == 0:
            raise EmptyDatasetError("dataset must contain at least one point (n >= 1)")
        if self.label not in DATASET_LABELS:
            raise LabelMismatchError(
                f"unknown dataset label {self.label!r}; expected one of {sorted(DATASET_LABELS)}"
            )
        if problem := integer_problem("seed", self.seed, 0):
            raise ValueError(problem)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n", pts.shape[0])

    def radii(self) -> NDArray[np.float64]:
        """Euclidean distance of every point from the origin."""
        return np.hypot(self.points[:, 0], self.points[:, 1])


def _rng(seed: int) -> np.random.Generator:
    # PCG64 is seedable, platform independent, and 64-bit; all sampling in the
    # package goes through it so runs are bit-reproducible from (n, seed).
    return np.random.Generator(np.random.PCG64(seed))


def sample_uniform_square(n: int, seed: int) -> Dataset:
    """Draw ``n`` i.i.d. points uniformly from the square ``[-1, 1]^2``.

    Each point consumes two consecutive uniform draws from a PCG64 stream, so
    identical ``(n, seed)`` give bit-identical output.

    Raises
    ------
    EmptyDatasetError
        If ``n < 1``.
    """
    if n < 1:
        raise EmptyDatasetError(f"cannot sample an empty dataset (n = {n})")
    pts = _rng(seed).random((int(n), 2)) * 2.0 - 1.0
    return Dataset(points=pts, label=LATENT_Z, seed=seed)


def sample_uniform_disk(n: int, seed: int) -> Dataset:
    """Draw ``n`` i.i.d. points uniformly from the unit disk.

    The disk is not a product of its marginal supports, which makes this the
    canonical negative fixture for the independent-support check.
    """
    if n < 1:
        raise EmptyDatasetError(f"cannot sample an empty dataset (n = {n})")
    u = _rng(seed).random((int(n), 2))
    r = np.sqrt(u[:, 0])
    phi = 2.0 * np.pi * u[:, 1]
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    return Dataset(points=pts, label=LATENT_Z, seed=seed)


def mix(A: Mixing2, z: ArrayLike) -> NDArray[np.float64]:
    """Map latent points to observations: ``x = A @ z`` (vectorized).

    The bits are those of ``z @ A.matrix.T``; an ``(n, 2)`` array is multiplied
    :data:`BLOCK_ROWS` rows at a time by :func:`_row_product`.
    """
    return _row_product(_as_points(z, what="latent point"), A.matrix)


def unmix(A: Mixing2, x: ArrayLike) -> NDArray[np.float64]:
    """Invert the mixing: ``z = A^{-1} @ x``; exact inverse of :func:`mix`.

    The bits are those of ``x @ A.inverse.T``, made as :func:`mix` makes its own.
    """
    return _row_product(_as_points(x, what="observed point"), A.inverse)


def _row_product(points: NDArray[np.float64], matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """``points @ matrix.T``, an ``(n, 2)`` array a block of rows at a time.

    A block this small takes OpenBLAS's single-threaded path, so no call leaves
    its thread pool spinning beside the rest of the run, and each block gives
    the bits of the whole-array product.  A block of one row would not: numpy
    multiplies it as a vector, which may round differently.  So a last row
    left alone joins the block before it, and other shapes keep ``@``.
    """
    if points.ndim != 2:
        return points @ matrix.T
    out = np.empty(points.shape)
    bounds = range(BLOCK_ROWS, len(points) - 1, BLOCK_ROWS)
    for start, stop in zip([0, *bounds], [*bounds, len(points)]):
        np.matmul(points[start:stop], matrix.T, out=out[start:stop])
    return out


def mpa_forward(p: MpaParams, z: ArrayLike) -> NDArray[np.float64]:
    """Apply the swirl: rotate by ``a*(|z| - c)`` radians inside radius ``c``.

    Identifying ``(z1, z2)`` with the complex number ``z1 + i*z2``, this is
    multiplication by ``exp(i*a*(|z| - c))`` on ``|z| <= c`` and the identity
    outside.  At ``|z| = c`` the angle vanishes, so the map is continuous.
    Rotation preserves the radius, hence the map preserves the uniform
    distribution on any radially symmetric region and on the square.

    The map rotates a copy of the points in place with :func:`_swirl_rows`.
    Points outside the cutoff are the copied ones: they come back
    unchanged bit for bit, signed zeros included.  The copy of a 2-D ``z`` is
    column-major, as a :class:`Dataset` is, so each block's coordinates are
    contiguous; other shapes stay row-major, where the rows are a view of the copy.
    """
    z = _as_points(z)
    out = z.copy(order="F" if z.ndim == 2 else "C")
    rows = out.reshape(-1, 2)
    _swirl_rows(p, rows, 0, len(rows))
    return out


def _swirl_rows(p: MpaParams, rows: NDArray[np.float64], start: int, stop: int) -> None:
    """Apply the swirl in place to rows ``start`` to ``stop`` of ``rows``, shape ``(m, 2)``.

    The rows go :data:`BLOCK_ROWS` at a time, and only those inside the cutoff
    are rotated, so the temporaries stay a few hundred kB whatever the range.
    The cutoff is decided by ``np.hypot`` through :func:`_inside_cutoff`, whose
    gathered coordinates are the ones rotated.  Each row's result depends on
    that row alone, so disjoint ranges may run on different threads.
    """
    for first in range(start, stop, BLOCK_ROWS):
        bx, by = rows[first:min(first + BLOCK_ROWS, stop)].T
        inside, x, y, theta = _inside_cutoff(bx, by, p.c)
        theta -= p.c  # the radii, made the angle a * (r - c) in place
        theta *= p.a
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        bx[inside] = cos_t * x - sin_t * y
        by[inside] = sin_t * x + cos_t * y


def _inside_cutoff(x: NDArray[np.float64], y: NDArray[np.float64],
                   c: float) -> tuple[NDArray, ...]:
    """The rows with ``np.hypot(x, y) <= c``, their ``x`` and ``y``, and their radii.

    ``np.hypot`` is called only on the rows with ``x*x + y*y`` at most
    ``c*c*(1 + HYPOT_MARGIN)`` or :data:`HYPOT_FLOOR`; every other row is outside.
    Rows with a NaN or an infinity are outside, as ``hypot`` has them.  Each
    coordinate is gathered once, and compressed only if a near row is outside.
    """
    with np.errstate(over="ignore"):
        near = np.flatnonzero(x * x + y * y <= max(c * c * (1.0 + HYPOT_MARGIN), HYPOT_FLOOR))
    x, y = x[near], y[near]
    r = np.hypot(x, y)
    keep = r <= c
    return (near, x, y, r) if keep.all() else (near[keep], x[keep], y[keep], r[keep])


def mpa_inverse(p: MpaParams, zp: ArrayLike) -> NDArray[np.float64]:
    """Exact inverse of :func:`mpa_forward`: the same swirl with rate ``-a``."""
    return mpa_forward(replace(p, a=-p.a), zp)


def apply_pipeline(A: Mixing2, p: MpaParams, zs: Dataset) -> tuple[Dataset, Dataset]:
    """Run the generative pipeline on a latent sample.

    Produces the observations ``X_i = A z_i`` and the alternate latents
    ``Z'_i = swirl(A^{-1} X_i)``; row ``i`` corresponds across all three
    datasets, and each is bit for bit ``mix(A, zs.points)`` and
    ``mpa_forward(p, unmix(A, X.points))``.

    The swirl of ``Z'`` is shared with one worker thread: each block of :data:`BLOCK_ROWS`
    rows is one :func:`_swirl_rows` task of :func:`~swirlaudit._worker.share_with_worker`.

    Raises
    ------
    LabelMismatchError
        If ``zs`` is not labelled ``latent-Z``.
    """
    if zs.label != LATENT_Z:
        raise LabelMismatchError(
            f"pipeline input must be labelled {LATENT_Z!r}, got {zs.label!r}"
        )
    x = Dataset(points=mix(A, zs.points), label=OBSERVED_X, seed=zs.seed)
    # Z' is made in its dataset's copy of X, allocated before any temporary: no hole between clouds
    zp = Dataset(points=x.points, label=LATENT_ZPRIME, seed=zs.seed)
    zp.points.flags.writeable = True
    zp.points[...] = unmix(A, x.points)
    share_with_worker([partial(_swirl_rows, p, zp.points, start, min(start + BLOCK_ROWS, zp.n))
                       for start in range(0, zp.n, BLOCK_ROWS)])
    zp.points.flags.writeable = False
    return x, zp


def jacobian_det_fd(
    transform: Callable[[NDArray[np.float64]], ArrayLike],
    z: ArrayLike,
    h: float = 1e-5,
    discontinuity_radius: float | None = None,
) -> float:
    """Central-finite-difference estimate of ``|det J|`` of a planar map at ``z``.

    Parameters
    ----------
    transform : callable
        Map from a point of shape ``(2,)`` to a point of shape ``(2,)``.
    z : array_like, shape (2,)
        Evaluation point.
    h : float
        Step size for the central differences.
    discontinuity_radius : float, optional
        If the transform's Jacobian is known to be discontinuous across the
        circle of this radius, probes within ``10*h`` of that circle are
        rejected with :class:`IllConditionedPointError` (the two-sided stencil
        would straddle the jump).

    Returns
    -------
    float
        Absolute value of the estimated Jacobian determinant.
    """
    if not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    z = _as_points(z)
    if z.shape != (2,):
        raise InvalidPointError(f"expected a single point of shape (2,), got {z.shape}")
    if discontinuity_radius is not None:
        gap = abs(np.hypot(z[0], z[1]) - discontinuity_radius)
        if gap <= 10.0 * h:
            raise IllConditionedPointError(
                f"probe at distance {gap:.3e} from the discontinuity circle; "
                f"need > {10.0 * h:.3e}"
            )
    jac = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        f_plus = _as_points(transform(z + step), what="transform output")
        f_minus = _as_points(transform(z - step), what="transform output")
        jac[:, j] = (f_plus - f_minus) / (2.0 * h)
    return float(abs(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]))
