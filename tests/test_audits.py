"""Tests for the premise checks and the coordinate-wise-relation verdict."""

import math
import sys
import threading
import time
import tracemalloc
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

import swirlaudit as sa
from swirlaudit import audits
from swirlaudit.audits import (
    COORDINATE_WISE,
    NOT_COORDINATE_WISE,
    AssignmentScores,
    AuditSettings,
    CoordRelationVerdict,
    _chi2_sf,
    _correlation,
    _doubled_ranks,
    _sort_order,
    _stable_places,
    audit_pair,
    bounding_box,
    check_compact_support,
    check_continuity,
    check_coordinatewise_relation,
    check_independent_support,
    check_sigma_algebra_proxy,
    check_uniformity,
    run_audit,
)
from swirlaudit.errors import (
    ConfigError,
    InvalidDomainError,
    PairingError,
    UndersampledError,
)
from swirlaudit.figures import swirl_profile
from swirlaudit.transforms import LATENT_Z, LATENT_ZPRIME, Dataset

SQUARE = np.array([[-1.0, 1.0], [-1.0, 1.0]])


def default_mixing():
    return sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0)


def default_swirl():
    return sa.MpaParams(3.6, 0.9)


def paired(n=100_000, seed=42, A=None, p=None):
    Z = sa.sample_uniform_square(n, seed)
    _, Zp = sa.apply_pipeline(A or default_mixing(), p or default_swirl(), Z)
    return Z, Zp


def as_zprime(points, seed=0):
    return Dataset(points=points, label=LATENT_ZPRIME, seed=seed)


# ---------------------------------------------------------------------------
# continuity


def test_continuity_identity():
    ok, ratio = check_continuity(lambda z: z, SQUARE, seed=0)
    assert ok and abs(ratio - 1.0) < 1e-6


def test_continuity_swirl_within_lipschitz_bound():
    # crude bound 1 + |a|*c = 4.24 verified against dense sampling (1e6
    # pairs give max ratio ~3.524, the top singular value at r = c)
    p = default_swirl()
    ok, ratio = check_continuity(
        lambda z: sa.mpa_forward(p, z), SQUARE, n_pairs=20_000, seed=1
    )
    assert ok
    assert 1.0 <= ratio <= 1.0 + abs(p.a) * p.c


def test_continuity_flags_step_function():
    # a jump of size 1 crossed by a 1e-7 displacement gives ratio ~1e7; the
    # domain box is a thin strip around the jump so a straddling pair is
    # effectively certain (blind sampling over the full square would cross a
    # measure-zero line with probability ~1e-5 per pair)
    def step(z):
        out = np.array(z, dtype=float, copy=True)
        out[..., 0] += np.where(out[..., 0] > 0.0, 1.0, 0.0)
        return out

    strip = np.array([[-1e-5, 1e-5], [-1.0, 1.0]])
    ok, ratio = check_continuity(step, strip, n_pairs=10_000, seed=2)
    assert not ok
    assert ratio >= 1e6


def test_continuity_rejects_degenerate_box():
    with pytest.raises(InvalidDomainError):
        check_continuity(lambda z: z, np.array([[0.0, 0.0], [-1.0, 1.0]]))
    with pytest.raises(ValueError):
        check_continuity(lambda z: z, SQUARE, n_pairs=10)


def test_continuity_refuses_a_pair_count_that_is_no_integer():
    with pytest.raises(ValueError, match=r"^n_pairs: must be an integer, got 100.5$"):
        check_continuity(lambda z: z, SQUARE, n_pairs=100.5)


@pytest.mark.parametrize("box", [[[-1.0, np.inf], [-1.0, 1.0]], [[-1.0, 1.0], [np.nan, 1.0]],
                                 [[-1.0, 1.0]]])
def test_continuity_refuses_a_box_that_is_not_finite_and_2x2(box):
    with pytest.raises(InvalidDomainError):
        check_continuity(lambda z: z, np.array(box))


# ---------------------------------------------------------------------------
# sigma-algebra proxy


def test_sigma_proxy_identity():
    Z = sa.sample_uniform_square(1000, seed=0)
    Zp = as_zprime(Z.points.copy())
    ok, err = check_sigma_algebra_proxy(Z, Zp, lambda z: z, lambda z: z)
    assert ok and err == 0.0


def test_sigma_proxy_pipeline_roundtrip():
    p = default_swirl()
    Z, Zp = paired()
    ok, err = check_sigma_algebra_proxy(
        Z, Zp, lambda z: sa.mpa_forward(p, z), lambda zp: sa.mpa_inverse(p, zp)
    )
    assert ok and err < 1e-12


def test_sigma_proxy_detects_broken_pairing():
    # random re-pairing puts the max mismatch at the scale of the support
    # diameter (~2.7 observed); anything near order 1 must fail
    p = default_swirl()
    Z, Zp = paired()
    shuffled = as_zprime(Zp.points[np.random.default_rng(0).permutation(Zp.n)])
    ok, err = check_sigma_algebra_proxy(
        Z, shuffled, lambda z: sa.mpa_forward(p, z), lambda zp: sa.mpa_inverse(p, zp)
    )
    assert not ok
    assert err > 0.5


def test_sigma_proxy_rejects_length_mismatch():
    Z = sa.sample_uniform_square(100, seed=0)
    Zp = as_zprime(sa.sample_uniform_square(99, seed=0).points)
    with pytest.raises(PairingError):
        check_sigma_algebra_proxy(Z, Zp, lambda z: z, lambda z: z)


# ---------------------------------------------------------------------------
# compact support


def test_compact_support_uniform_square():
    ok, box = check_compact_support(sa.sample_uniform_square(10_000, 0), SQUARE)
    assert ok
    assert box.shape == (2, 2)


def test_compact_support_escaping_point():
    d = Dataset(points=np.array([[1.5, 0.0]]), label=LATENT_Z, seed=0)
    ok, _ = check_compact_support(d, SQUARE)
    assert not ok


def test_compact_support_swirled_cloud():
    _, Zp = paired(seed=5)
    ok, _ = check_compact_support(Zp, SQUARE)
    assert ok


# ---------------------------------------------------------------------------
# independent support


def test_independent_support_square_passes():
    ok, fraction = check_independent_support(sa.sample_uniform_square(100_000, 1), 10)
    assert ok and fraction == 1.0


def test_independent_support_disk_fails():
    ok, fraction = check_independent_support(sa.sample_uniform_disk(100_000, 1), 10)
    assert not ok and fraction < 1.0


def test_independent_support_swirled_cloud_passes():
    _, Zp = paired(seed=8)
    ok, fraction = check_independent_support(Zp, 10)
    assert ok and fraction == 1.0


def test_independent_support_undersampled():
    with pytest.raises(UndersampledError) as exc:
        check_independent_support(sa.sample_uniform_square(100, 1), 10)
    assert exc.value.required_n == 10 * 10 * 5 * 5


def test_support_grid_marginal_consistency():
    # the disk's fraction against a histogram2d reference over its bounding box
    D = sa.sample_uniform_disk(50_000, 3)
    counts, _, _ = np.histogram2d(*D.points.T, bins=10, range=bounding_box(D.points).tolist())
    product = np.outer(counts.sum(axis=1) >= 5, counts.sum(axis=0) >= 5)
    assert not np.any((counts >= 5) & ~product)
    ok, fraction = check_independent_support(D, 10)
    assert not ok
    assert fraction == (counts[product] >= 5).mean() < 1.0


# ---------------------------------------------------------------------------
# uniformity


def test_uniformity_null_single_run():
    p = check_uniformity(sa.sample_uniform_square(100_000, 17), 10)
    assert p > 0.001


def test_uniformity_null_pvalues_look_uniform():
    # distribution check of the check: under the null the p-values across
    # seeds should be consistent with U(0, 1)
    ps = [check_uniformity(sa.sample_uniform_square(20_000, 500 + s), 10) for s in range(40)]
    assert stats.kstest(ps, "uniform").pvalue > 0.01


def test_uniformity_pvalue_equals_scipy_chi2_sf():
    # the p-value is the chi-square survival function, to within scipy's own
    # rounding: scipy's value is itself up to ~1e-13 off the true one here
    Zp = paired(n=20_000, seed=9)[1]
    for bins in (2, 10, 17):
        counts, _, _ = np.histogram2d(
            Zp.points[:, 0], Zp.points[:, 1], bins=bins, range=[(-1, 1), (-1, 1)]
        )
        expected = Zp.n / bins**2
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert math.isclose(check_uniformity(Zp, bins), float(stats.chi2.sf(statistic, bins**2 - 1)),
                            rel_tol=1e-12)


# tail probabilities from 1e-12 to 1 - 1e-9, spread over both tails
_TAILS = st.one_of(st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
                   st.floats(-9.0, -0.3).map(lambda e: 1.0 - 10.0**e))


@settings(max_examples=150, deadline=None)
@given(bins=st.integers(2, 100), tail=_TAILS)
def test_chi2_sf_matches_50_digit_gammainc(bins, tail):
    k = bins * bins - 1
    x = float(special.chdtri(k, tail))
    with mpmath.workdps(50):
        exact = mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                regularized=True)
        assert abs(_chi2_sf(k, x) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("k", [1, 2, 3, 99, 288, 9999])
def test_chi2_sf_edges_and_monotone(k):
    assert _chi2_sf(k, 0.0) == 1.0
    assert _chi2_sf(k, math.inf) == 0.0
    assert math.isnan(_chi2_sf(k, math.nan))
    # x from 0 past the far upper tail, with steps dense around the mean
    xs = sorted({*np.linspace(0.0, 4.0 * k + 60.0, 4001), *np.linspace(0.9 * k, 1.1 * k, 4001)})
    values = [_chi2_sf(k, float(x)) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))


def test_chi2_sf_at_two_million_degrees_in_constant_memory():
    # bins = 1414, the most that n = 1e7 admits: the series walks O(sqrt(k))
    # terms and keeps none of them
    k = 1414**2 - 1
    for tail in (1e-9, 0.01, 0.5, 0.99):
        x = float(special.chdtri(k, tail))
        tracemalloc.start()
        try:
            value = _chi2_sf(k, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isclose(value, float(special.chdtrc(k, x)), rel_tol=1e-10)
        assert peak < 1_000_000


def test_uniformity_swirled_cloud():
    _, Zp = paired(seed=4)
    assert check_uniformity(Zp, 10) > 0.001


def test_uniformity_second_oracle_at_large_n():
    # independent route to "Z' is uniform on the square": marginal KS tests
    # plus a contingency-table independence test across grid cells
    Z, Zp = paired(n=1_000_000, seed=11)
    u = stats.uniform(loc=-1.0, scale=2.0)
    assert stats.kstest(Zp.points[:, 0], u.cdf).pvalue > 0.001
    assert stats.kstest(Zp.points[:, 1], u.cdf).pvalue > 0.001
    counts, _, _ = np.histogram2d(
        Zp.points[:, 0], Zp.points[:, 1], bins=10, range=[(-1, 1), (-1, 1)]
    )
    assert stats.chi2_contingency(counts).pvalue > 0.001
    assert check_uniformity(Zp, 10) > 0.001


def test_uniformity_rejects_quadrant_data():
    pts = np.random.default_rng(3).random((100_000, 2))  # [0,1]^2 only
    p = check_uniformity(Dataset(points=pts, label=LATENT_Z, seed=3), 10)
    assert p < 1e-10


def test_uniformity_counts_the_largest_floats_outside_without_a_warning():
    # their bin guesses overflow to +-inf on the square's grid, and clip to the end cells
    pts = sa.sample_uniform_square(20_000, seed=3).points.copy()
    pts[:4] = [(1.7e308, 0.0), (-1.7e308, 0.0), (0.5, 1.7976931348623157e308), (0.0, -1e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = check_uniformity(Dataset(points=pts, label=LATENT_Z, seed=3), 10)
    inside = Dataset(points=pts[4:], label=LATENT_Z, seed=3)
    counts = audits._grid_counts(pts, 10, audits._SQUARE)
    assert counts.sum() == 20_000 - 4
    assert np.array_equal(counts, audits._grid_counts(inside.points, 10, audits._SQUARE))
    assert 0.0 < p < 1.0


def test_uniformity_undersampled():
    with pytest.raises(UndersampledError):
        check_uniformity(sa.sample_uniform_square(100, 1), 10)


# ---------------------------------------------------------------------------
# coordinate-wise relation


@pytest.mark.parametrize("levels", [None, 7, 2])
def test_rank_correlation_matches_spearman(levels):
    # levels=None: continuous data, no ties; otherwise heavy ties on both axes
    rng = np.random.default_rng(levels or 0)
    x = rng.random(5000)
    y = x + 0.5 * rng.random(5000)
    if levels is not None:
        x, y = np.floor(x * levels), np.floor(y * levels)
    for a, b in ((x, y), (x, -y), (y, rng.permutation(x))):
        (ra, _, sa_), (rb, _, sb) = _doubled_ranks(a), _doubled_ranks(b)
        rho = _correlation(ra, rb, sa_, sb)
        assert abs(rho - stats.spearmanr(a, b).statistic) <= 1e-12



@pytest.mark.parametrize("levels", [None, 7, 2])
def test_average_ranks_equal_rankdata_exactly(levels):
    # distinct values take the no-tie path, quantised ones the tie groups
    x = np.random.default_rng(1).random(5000)
    if levels is not None:
        x = np.floor(x * levels)
    assert np.array_equal(_doubled_ranks(x)[0] / 2.0, stats.rankdata(x))

def test_undersampled_errors_report_the_shared_bounds():
    D = sa.sample_uniform_square(100, 0)
    for check, bound in (
        (lambda: check_independent_support(D, 10), 2500),
        (lambda: check_uniformity(D, 10), 500),
        (lambda: check_coordinatewise_relation(D, as_zprime(D.points), bins=50), 2500),
    ):
        with pytest.raises(UndersampledError) as info:
            check()
        assert info.value.required_n == bound


def test_relation_identity_is_coordinate_wise():
    Z = sa.sample_uniform_square(100_000, 23)
    verdict = check_coordinatewise_relation(Z, as_zprime(Z.points.copy()), bins=50)
    assert verdict.verdict == COORDINATE_WISE
    assert verdict.best_assignment == (0, 1)
    # scores sit at the 1/bins^2 scale for an identity relation
    assert verdict.best_max_score < 2.0 / 50**2
    assert verdict.monotonicity == ("increasing", "increasing")


def test_relation_swap_negation_cube_is_coordinate_wise():
    Z = sa.sample_uniform_square(100_000, 29)
    zp = np.column_stack([-Z.points[:, 1], Z.points[:, 0] ** 3])
    verdict = check_coordinatewise_relation(Z, as_zprime(zp), bins=50)
    assert verdict.verdict == COORDINATE_WISE
    assert verdict.best_assignment == (1, 0)
    # output coordinate 0 tracks the cube (increasing), 1 the negation
    assert verdict.monotonicity == ("increasing", "decreasing")


@pytest.mark.parametrize("bins", [16, 25, 50])
def test_relation_soundness_across_bin_counts(bins):
    # identity-score scale is 1/bins^2; at bins=10 that *equals* the 0.01
    # threshold, so the sweep starts where a real margin exists
    for seed in range(5):
        Z = sa.sample_uniform_square(10_000, 3000 + seed)
        negated = as_zprime(-Z.points)
        verdict = check_coordinatewise_relation(Z, negated, bins=bins)
        assert verdict.verdict == COORDINATE_WISE


def test_relation_swirl_is_not_coordinate_wise():
    Z, Zp = paired(seed=1)
    verdict = check_coordinatewise_relation(Z, Zp, bins=50)
    assert verdict.verdict == NOT_COORDINATE_WISE
    # calibrated floor: observed best max score is ~0.177-0.181 over seeds
    assert verdict.best_max_score >= 0.05


def rank_floor(n, bins):
    """F(n, bins): the smallest score distinct values can have, each bin one block of
    consecutive ranks."""
    sizes = [chunk.size for chunk in np.array_split(np.arange(n), bins)]
    return sum(s * (s * s - 1) for s in sizes) / (n * (n * n - 1))


def test_relation_steep_coordinate_wise_map_is_coordinate_wise():
    # the value score put Z' = Z**9 at ~0.0125 > 0.01; ranks do not see the map
    Z = sa.sample_uniform_square(100_000, 7)
    verdict = check_coordinatewise_relation(Z, as_zprime(Z.points ** 9, seed=7), bins=50)
    assert verdict.verdict == COORDINATE_WISE
    assert verdict.best_max_score == pytest.approx(rank_floor(100_000, 50), rel=1e-12)


@pytest.mark.parametrize("outlier", [100.0, 1e200])
def test_relation_identity_with_one_outlier_is_coordinate_wise(outlier):
    # a value score put one row at (100, 0) at ~0.227, and overflowed to NaN at (1e200, 0)
    points = sa.sample_uniform_square(100_000, 7).points.copy()
    points[0] = (outlier, 0.0)
    verdict = check_coordinatewise_relation(Dataset(points, LATENT_Z, 7),
                                            as_zprime(points, seed=7), bins=50)
    assert verdict.verdict == COORDINATE_WISE
    assert verdict.best_max_score == pytest.approx(rank_floor(100_000, 50), rel=1e-12)


MONOTONE_MAPS = {
    "cube": lambda v: v ** 3,
    "ninth power": lambda v: v ** 9,
    "exp": lambda v: np.exp(3.0 * v),
    "tanh": lambda v: np.tanh(4.0 * v),
    "negation": lambda v: -v,
    "negated fifth power": lambda v: -(v ** 5),
}


@settings(max_examples=25, deadline=None)
@given(
    maps=st.tuples(st.sampled_from(sorted(MONOTONE_MAPS)), st.sampled_from(sorted(MONOTONE_MAPS))),
    swap=st.booleans(),
    n=st.integers(2500, 12_000),
    bins=st.integers(10, 50),  # from 10 bins on, the floor is below the 0.01 threshold
    seed=st.integers(0, 2**32 - 1),
)
def test_relation_of_strictly_monotone_maps_scores_the_floor(maps, swap, n, bins, seed):
    assume(n >= 50 * bins)
    Z = sa.sample_uniform_square(n, seed)
    zp = np.column_stack([MONOTONE_MAPS[name](Z.points[:, j]) for j, name in enumerate(maps)])
    assume(all(np.unique(column).size == n for column in zp.T))  # the map kept values apart
    perm = (1, 0) if swap else (0, 1)
    verdict = check_coordinatewise_relation(Z, as_zprime(zp[:, perm]), bins=bins)
    assert verdict.verdict == COORDINATE_WISE
    assert verdict.best_assignment == perm
    assert verdict.best_max_score == pytest.approx(rank_floor(n, bins), rel=1e-12)
    signs = ["decreasing" if "negat" in name else "increasing" for name in maps]
    assert verdict.monotonicity == tuple(signs)  # Z_j against Z'_{perm[j]}, its own map


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2500, 12_000),
    bins=st.integers(2, 50),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.0, 10.0),
    swap=st.booleans(),
)
def test_relation_scores_of_distinct_values_never_fall_below_the_floor(n, bins, seed, a, swap):
    assume(n >= 50 * bins)
    Z = sa.sample_uniform_square(n, seed)
    zp = sa.mpa_forward(sa.MpaParams(a, 0.9), Z.points) if a else Z.points.copy()
    zp = zp[:, ::-1] if swap else zp
    zp[:, 1] += np.random.default_rng(seed).normal(0.0, 0.1, n)  # and some noise
    assume(all(np.unique(column).size == n for column in (*Z.points.T, *zp.T)))
    verdict = check_coordinatewise_relation(Z, as_zprime(zp), bins=bins)
    floor = rank_floor(n, bins)
    for scores in verdict.assignments:
        for score in (*scores.zprime_to_z, *scores.z_to_zprime):
            assert floor * (1 - 1e-12) <= score <= 1.0


@pytest.mark.parametrize("group", [1, 3])
def test_rank_spread_is_exact_where_its_squares_pass_int64(group):
    # 4e6 doubled ranks: their centred squares sum past 2**63, and so would wrap in one
    # int64 sum; groups of three tied values take off sum(t**3 - t) / 3 per group
    n = 4_000_002
    ranks, distinct, spread = _doubled_ranks(np.arange(n, dtype=np.float64) // group)
    assert distinct == (group == 1)
    assert n * (n * n - 1) // 3 > 2**63
    assert spread == (n**3 - n - n // group * (group**3 - group)) // 3
    if group == 1:
        # Z' = Z at this size: every bin one block of consecutive ranks
        share = audits._within_bin_share(ranks, spread, ranks // 2 - 1, 50)
        assert share == pytest.approx(rank_floor(n, 50), rel=1e-12)


def test_relation_requires_pairing_and_samples():
    Z = sa.sample_uniform_square(2600, 1)
    with pytest.raises(PairingError):
        check_coordinatewise_relation(Z, as_zprime(Z.points[:-1]), bins=50)
    with pytest.raises(UndersampledError):
        check_coordinatewise_relation(Z, as_zprime(Z.points), bins=60)


# ---------------------------------------------------------------------------
# full audit


def test_run_audit_defaults_certify():
    report = run_audit(default_mixing(), default_swirl(), 100_000, 42)
    assert report.premises_pass
    assert report.uniformity_pass
    assert report.conclusion.verdict == NOT_COORDINATE_WISE
    assert report.counterexample_certified


def test_run_audit_degenerate_control():
    report = run_audit(default_mixing(), sa.MpaParams.degenerate_fixture(0.9), 100_000, 42)
    assert report.premises_pass
    assert report.conclusion.verdict == COORDINATE_WISE
    assert not report.counterexample_certified


def test_run_audit_rejects_invalid_cutoff():
    with pytest.raises(ValueError):
        run_audit(default_mixing(), sa.MpaParams(3.6, 1.5), 100_000, 42)


def test_run_audit_attaches_check_name_to_errors():
    with pytest.raises(UndersampledError, match=r"\[independent-support\]"):
        run_audit(default_mixing(), default_swirl(), 2400, 42, bins_relation=10)


@pytest.mark.parametrize("key, value", [
    ("bins_relation", 1),
    ("functional_threshold", -1.0),
    ("bins_uniformity", 1),
    ("alpha", 1.5),
    ("l_max", 0.0),
    ("bins_relation", 20.5),
    ("bins_support", 10.0),
    ("alpha", "0.1"),
])
def test_invalid_settings_raise_config_error_before_sampling(monkeypatch, key, value):
    Z, Zp = paired(n=20_000, seed=7)
    sampled = []
    original = audits.sample_uniform_square
    for module in [m for k, m in sys.modules.items() if k.startswith("swirlaudit")]:
        if getattr(module, "sample_uniform_square", None) is original:
            monkeypatch.setattr(module, "sample_uniform_square",
                                lambda *args: sampled.append(args) or original(*args))
    calls = record_check_calls(monkeypatch)
    message = rf"^invalid configuration:\n  {key}: must "
    with pytest.raises(ConfigError, match=message):
        run_audit(default_mixing(), default_swirl(), 20_000, 7, **{key: value})
    with pytest.raises(ConfigError, match=message):
        audit_pair(Z, Zp, settings=AuditSettings(**{key: value}))
    assert sampled == [] and calls == []


BINNED_CHECKS = {  # each binned check by the setting that holds its bins
    "bins_support": lambda Z, Zp, bins: check_independent_support(Z, bins),
    "bins_uniformity": lambda Z, Zp, bins: check_uniformity(Zp, bins),
    "bins_relation": lambda Z, Zp, bins: check_coordinatewise_relation(Z, Zp, bins=bins),
}


@pytest.mark.parametrize("bins", [0, 1, 2.5, True])
@pytest.mark.parametrize("key", BINNED_CHECKS)
def test_binned_checks_refuse_what_is_no_bin_count(key, bins):
    # 0 bins would divide by zero, and 1 uniformity bin gives p = 1 for any cloud
    Z, Zp = paired(n=20_000, seed=7)
    with pytest.raises(ValueError, match=rf"^{key}: must be "):
        BINNED_CHECKS[key](Z, Zp, bins)


@pytest.mark.parametrize("key", BINNED_CHECKS)
def test_binned_checks_accept_numpy_integer_bins(key):
    Z, Zp = paired(n=20_000, seed=7)
    assert BINNED_CHECKS[key](Z, Zp, np.int64(10)) == BINNED_CHECKS[key](Z, Zp, 10)
    assert getattr(AuditSettings(**{key: np.int64(10)}), key) == 10


CHECKS = (
    "check_continuity",
    "check_sigma_algebra_proxy",
    "check_compact_support",
    "check_independent_support",
    "check_uniformity",
    "check_coordinatewise_relation",
)


def record_check_calls(monkeypatch, wrap=lambda name, check: check):
    """Replace every ``audits.check_*`` by a wrapper that records its name and whether it
    ran on the main thread, and that calls ``wrap(name, check)`` in place of ``check``.
    Return the record."""
    calls = []
    for name in CHECKS:
        def recording(*args, _name=name, _check=wrap(name, getattr(audits, name)), **kwargs):
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _check(*args, **kwargs)
        monkeypatch.setattr(audits, name, recording)
    return calls


def row_major(D):
    """``D`` with its points stored row by row, as a :class:`Dataset` no longer makes them."""
    copy = Dataset(points=D.points, label=D.label, seed=D.seed)
    points = np.ascontiguousarray(D.points)
    points.flags.writeable = False
    object.__setattr__(copy, "points", points)
    return copy


@pytest.mark.parametrize("n", [20_000, 40_000])
def test_audit_pair_gives_the_same_report_for_either_layout(n):
    A, p = default_mixing(), default_swirl()
    Z, X, Zp = audits.generate(A, p, n, 3)
    assert all(D.points.flags.f_contiguous for D in (Z, X, Zp))
    rows = [row_major(D) for D in (Z, X, Zp)]
    assert all(D.points.flags.c_contiguous for D in rows)
    assert audit_pair(Z, Zp, maps=(A, p, X)) == audit_pair(rows[0], rows[2],
                                                           maps=(A, p, rows[1]))
    assert audit_pair(Z, Zp) == audit_pair(rows[0], rows[2])
    assert swirl_profile(Z, Zp).tobytes() == swirl_profile(rows[0], rows[2]).tobytes()


def test_audit_pair_rejects_unpaired_clouds_before_any_check(monkeypatch):
    calls = record_check_calls(monkeypatch)
    Z = sa.sample_uniform_square(20_000, 1)
    with pytest.raises(PairingError):
        audit_pair(Z, as_zprime(Z.points[:-1]))
    assert calls == []
    # the same clouds, paired, do reach every check that runs without maps
    audit_pair(Z, as_zprime(Z.points))
    assert {name for name, _ in calls} == set(CHECKS) - {"check_continuity",
                                                         "check_sigma_algebra_proxy"}


@pytest.mark.parametrize("paired_call", [
    lambda Z, Zp: audit_pair(Z, Zp),
    lambda Z, Zp: check_sigma_algebra_proxy(Z, Zp, lambda z: z, lambda z: z),
    lambda Z, Zp: check_coordinatewise_relation(Z, Zp),
    lambda Z, Zp: swirl_profile(Z, Zp),
], ids=["audit_pair", "sigma-algebra", "relation", "swirl_profile"])
def test_every_paired_call_refuses_unpaired_clouds_alike(paired_call):
    Z = sa.sample_uniform_square(20_000, 1)
    with pytest.raises(PairingError, match=r"^row-count mismatch: 20000 vs 19999$"):
        paired_call(Z, as_zprime(Z.points[:-1]))


def test_audit_pair_names_every_missed_floor_in_one_error(monkeypatch):
    calls = record_check_calls(monkeypatch)
    Z = sa.sample_uniform_square(100, 3)
    with pytest.raises(UndersampledError) as info:
        audit_pair(Z, as_zprime(Z.points[::-1]))
    assert str(info.value) == (
        "[independent-support] needs n >= 2500 for bins_support = 10, got n = 100\n"
        "  [uniformity] needs n >= 500 for bins_uniformity = 10, got n = 100\n"
        "  [relation] needs n >= 2500 for bins_relation = 50, got n = 100"
    )
    assert info.value.required_n == 2500
    assert calls == []


class CheckFailed(RuntimeError):
    pass


# the checks that audit_pair queues to its worker, in queue order, while the calling thread
# runs the relation and then takes the queue's unstarted tail
WORKER_ORDER = ("check_continuity", "check_continuity", "check_sigma_algebra_proxy",
                "check_compact_support", "check_compact_support", "check_independent_support",
                "check_independent_support", "check_uniformity")


def test_worker_error_reaches_the_caller_with_its_type(monkeypatch):
    def failing(*args, **kwargs):
        raise CheckFailed("sigma-algebra")
    ran = record_check_calls(
        monkeypatch, lambda name, check: failing if name == "check_sigma_algebra_proxy" else check)
    threads = threading.active_count()
    with pytest.raises(CheckFailed, match="sigma-algebra"):
        run_audit(default_mixing(), default_swirl(), 10_000, 1)
    assert threading.active_count() == threads
    # the relation ran on the calling thread, and every queued check ran once, on either thread
    assert ("check_coordinatewise_relation", True) in ran
    assert sorted(name for name, _ in ran) == sorted(
        WORKER_ORDER + ("check_coordinatewise_relation",))


def first_check_slowed(started, then=lambda check, *args, **kwargs: check(*args, **kwargs)):
    """Wrappers for ``record_check_calls``: the first continuity sweep sets ``started``,
    sleeps and calls ``then``; the relation waits for ``started`` before it runs."""
    def wrap(name, check):
        def first_slow(*args, **kwargs):
            if started.is_set():
                return check(*args, **kwargs)
            started.set()
            time.sleep(0.5)
            return then(check, *args, **kwargs)

        def after_start(*args, **kwargs):
            assert started.wait(timeout=10)
            return check(*args, **kwargs)
        return {"check_continuity": first_slow,
                "check_coordinatewise_relation": after_start}.get(name, check)
    return wrap


def test_calling_thread_takes_the_unstarted_tail_of_the_queue(monkeypatch):
    A, p = default_mixing(), default_swirl()
    unslowed = run_audit(A, p, 20_000, 1)
    ran = record_check_calls(monkeypatch, first_check_slowed(threading.Event()))
    threads = threading.active_count()
    assert run_audit(A, p, 20_000, 1) == unslowed
    assert threading.active_count() == threads
    # the worker sleeps in the first sweep and runs the second in the same task, so this
    # thread runs the relation and every later check
    assert sorted(ran) == sorted(
        [("check_continuity", False)] * 2 + [("check_coordinatewise_relation", True)]
        + [(name, True) for name in WORKER_ORDER[2:]])


def test_the_first_failing_check_in_queue_order_raises_whichever_thread_ran_it(monkeypatch):
    def failing(check, *args, **kwargs):
        raise CheckFailed(check.__name__)

    wrap = first_check_slowed(threading.Event(), then=failing)
    ran = record_check_calls(monkeypatch, lambda name, check: (
        partial(failing, check) if name == "check_uniformity" else wrap(name, check)))
    with pytest.raises(CheckFailed, match="^check_continuity$"):
        run_audit(default_mixing(), default_swirl(), 20_000, 1)
    # the last check failed first, on this thread, while the worker slept in the first
    assert ("check_uniformity", True) in ran


def test_error_on_the_calling_thread_still_joins_the_worker(monkeypatch):
    finished = []

    def failing(*args, **kwargs):
        raise CheckFailed("relation")

    def slowed(check):
        def slow(*args, **kwargs):
            time.sleep(0.2)
            result = check(*args, **kwargs)
            finished.append(threading.current_thread() is threading.main_thread())
            return result
        return slow

    ran = record_check_calls(monkeypatch, lambda name, check: (
        failing if name == "check_coordinatewise_relation"
        else slowed(check) if name == "check_uniformity" else check))
    threads = threading.active_count()
    with pytest.raises(CheckFailed, match="relation"):
        run_audit(default_mixing(), default_swirl(), 10_000, 1)
    # the slowed uniformity check, the worker's last, had ended when the error reached the caller
    assert finished == [False]
    assert threading.active_count() == threads
    assert ("check_coordinatewise_relation", True) in ran
    assert [entry for entry in ran if entry[0] != "check_coordinatewise_relation"] == [
        (name, False) for name in WORKER_ORDER]


def test_concurrent_audits_each_give_the_single_threaded_report():
    # every hand-off between an audit's two threads, under frequent thread switches
    A, p = default_mixing(), default_swirl()
    Z, X, Zp = audits.generate(A, p, 20_000, 5)
    reference = audit_pair(Z, Zp, maps=(A, p, X))
    reports, errors = [], []

    def audit_five_times():
        try:
            for _ in range(5):
                reports.append(audit_pair(Z, Zp, maps=(A, p, X)))
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=audit_five_times) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(reports) == 20 and all(report == reference for report in reports)


@pytest.mark.parametrize("check, message", [
    (lambda D: check_independent_support(D, 10),
     "[independent-support] needs n >= 2500 for bins_support = 10, got n = 100"),
    (lambda D: check_uniformity(D, 10),
     "[uniformity] needs n >= 500 for bins_uniformity = 10, got n = 100"),
    (lambda D: check_coordinatewise_relation(D, as_zprime(D.points), bins=50),
     "[relation] needs n >= 2500 for bins_relation = 50, got n = 100"),
])
def test_standalone_checks_name_their_floor(check, message):
    with pytest.raises(UndersampledError) as info:
        check(sa.sample_uniform_square(100, 0))
    assert str(info.value) == message


def test_run_audit_verdicts_stable_in_sample_size():
    # doubling the sample by x10 must not flip any verdict across 20 seeds
    A, p = default_mixing(), default_swirl()
    for seed in range(1, 21):
        small = run_audit(A, p, 10_000, seed)
        large = run_audit(A, p, 100_000, seed)
        assert small.premises_pass == large.premises_pass
        assert small.uniformity_pass == large.uniformity_pass
        assert small.conclusion.verdict == large.conclusion.verdict


# ---------------------------------------------------------------------------
# fast paths against the code they replaced


# values for the "specials-no-nan" kind: the infinities, subnormals and zeros
SPECIAL_VALUES = (-np.inf, np.inf, -5e-324, 5e-324, -2.2e-308, 1e-310, -0.0, 0.0, -1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    size=st.sampled_from([1, 2, 1000, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 1]),
    kind=st.sampled_from(["distinct", "ties", "signed-zeros", "ulps", "ulps-tied",
                          "specials-no-nan", "one-zero-sign", "long-run", "two-clusters",
                          "wrapped"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=3 * 2**14 + 1, kind="long-run", seed=0)  # one run across three blocks
@example(size=3 * 2**14 + 1, kind="two-clusters", seed=0)
@example(size=3 * 2**14 + 1, kind="wrapped", seed=0)
def test_sort_order_equals_stable_argsort(size, kind, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size)
    if kind == "ties":
        v = np.round(v, 1)
    elif kind == "signed-zeros":
        v = np.where(rng.random(size) < 0.5, v, rng.choice([-0.0, 0.0], size))
    elif kind == "ulps":  # a few ulps apart, so the packed keys' top bits collide
        v = 1.0 + rng.permutation(size) * 2.0**-52
    elif kind == "ulps-tied":
        v = 1.0 + rng.integers(0, size // 2 + 1, size) * 2.0**-52
    elif kind == "specials-no-nan":
        v = np.where(rng.random(size) < 0.5, v, rng.choice(SPECIAL_VALUES, size))
    elif kind == "one-zero-sign":  # one sign of zero, beside the subnormals
        v = np.where(rng.random(size) < 0.5, v, rng.choice(SPECIAL_VALUES[2:6] + (-0.0,), size))
    elif kind == "long-run":  # one run longer than a block, beside short runs of ties
        v = np.where(rng.random(size) < 0.9, 1.0 + rng.integers(0, size, size) * 2.0**-52,
                     np.round(v, 1))
    elif kind == "two-clusters":  # two long runs of negative values: the first sorted in
        # place must get its top bits back, or its keys lie above the second's
        v = np.where(rng.random(size) < 0.5, -1.0 - rng.integers(0, size, size) * 2.0**-52,
                     -3.0 - rng.permutation(size) * 2.0**-51)
    elif kind == "wrapped":  # one run, whose last five rows tie with its first five and
        # are its only disorder, all in its last block
        v = 1.0 + np.arange(size) % max(size - 5, 1) * 2.0**-52
    order, distinct = _sort_order(v)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.argsort(v, kind="stable"))
    with np.errstate(invalid="ignore"):  # inf - inf
        assert distinct == bool(np.all(np.diff(v[order]) > 0))
    # the ranks sum each row's places in the stable orders of v and of v reversed, and
    # the places are read back from the ranks alone
    ranks, ranked_distinct, _ = _doubled_ranks(v)
    assert ranked_distinct == distinct
    assert np.array_equal(ranks, 2 * stats.rankdata(v))
    assert np.array_equal(_stable_places(ranks, distinct), np.argsort(order))


def test_sort_order_keeps_signed_zeros_in_stable_order():
    for v in ([0.0, -0.0], [-0.0, 0.0, -0.0, 1.0]):
        v = np.array(v)
        order, distinct = _sort_order(v)
        assert np.array_equal(order, np.argsort(v, kind="stable"))
        assert not distinct


def test_sort_order_of_a_strided_column_equals_stable_argsort():
    # the clouds' columns are strided views; 0.5 and the two floats above it share their
    # packed keys' top bits, so their rows, interleaved, make one run to put in order
    points = np.random.default_rng(5).random((50_000, 2))
    points[::7, 0] = 0.5
    points[::11, 0] = np.nextafter(0.5, 1.0)
    points[::13, 0] = np.nextafter(np.nextafter(0.5, 1.0), 1.0)
    for column in points.T:
        for view in (column, column[::-1]):  # reversed, as the ranks of tied values sort it
            order, distinct = _sort_order(view)
            assert np.array_equal(order, np.argsort(view, kind="stable"))
            assert distinct == bool(np.all(np.diff(view[order]) > 0))


def _reference_ratio(binning, dependent, bins):
    """One stable sort per (binning, dependent) pair; the check scores ``dependent``'s ranks."""
    total_var = float(dependent.var())
    if total_var == 0.0:
        return 0.0
    order = np.argsort(binning, kind="stable")
    within = 0.0
    for chunk in np.array_split(dependent[order], bins):
        within += chunk.size * float(chunk.var())
    return within / (binning.size * total_var)


def _reference_ranks(values):
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts_group = np.empty(ordered.size, dtype=bool)
    starts_group[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts_group[1:])
    starts = np.flatnonzero(starts_group)
    ends = np.append(starts[1:], ordered.size)
    ranks = np.empty(ordered.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _reference_note(x, y):
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = float(np.corrcoef(_reference_ranks(x), _reference_ranks(y))[0, 1])
    if rho >= 0.95:
        return "increasing"
    if rho <= -0.95:
        return "decreasing"
    return "non-monotone"


def reference_relation(Z, Zp, bins=50, threshold=0.01):
    """The relation check with its twelve stable sorts (eight for the scores,
    four for the monotonicity ranks), scoring ``rankdata``'s ranks."""
    scored = []
    for perm in ((0, 1), (1, 0)):
        forward = tuple(
            _reference_ratio(Zp.points[:, perm[j]], stats.rankdata(Z.points[:, j]), bins)
            for j in range(2)
        )
        reverse = tuple(
            _reference_ratio(Z.points[:, j], stats.rankdata(Zp.points[:, perm[j]]), bins)
            for j in range(2)
        )
        scored.append(AssignmentScores(perm=perm, zprime_to_z=forward, z_to_zprime=reverse))
    best = min(scored, key=lambda a: a.max_score)
    return CoordRelationVerdict(
        threshold=threshold,
        monotonicity=tuple(
            _reference_note(Zp.points[:, best.perm[j]], Z.points[:, j]) for j in range(2)
        ),
        assignments=tuple(scored),
    )


def assert_same_relation(got, want):
    """The same verdict, notes and assignments, and each score within 1e-12 relative:
    the check's integer sums and the reference's float variances round apart."""
    assert (got.verdict, got.monotonicity, got.best_assignment) == (
        want.verdict, want.monotonicity, want.best_assignment)
    assert [a.perm for a in got.assignments] == [a.perm for a in want.assignments]
    for mine, theirs in zip(got.assignments, want.assignments):
        assert (*mine.zprime_to_z, *mine.z_to_zprime) == pytest.approx(
            (*theirs.zprime_to_z, *theirs.z_to_zprime), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("decimals", [None, 2, 1])
@pytest.mark.parametrize(
    "p", [sa.MpaParams(3.6, 0.9), sa.MpaParams(0.5, 0.5), sa.MpaParams.degenerate_fixture()]
)
def test_relation_identical_to_twelve_sort_reference(p, decimals):
    # decimals=None: distinct values (fast sort path); otherwise quantised
    # clouds with heavy ties (stable fallback path)
    for seed in (5, 6):
        Z, Zp = paired(n=20_000, seed=seed, p=p)
        if decimals is not None:
            Z = Dataset(points=np.round(Z.points, decimals), label=LATENT_Z, seed=seed)
            Zp = as_zprime(np.round(Zp.points, decimals), seed=seed)
        assert_same_relation(check_coordinatewise_relation(Z, Zp, bins=40),
                             reference_relation(Z, Zp, bins=40))


@pytest.mark.parametrize("n", [1, 2, 1001])
def test_bounding_box_equals_axis_reduction(n):
    pts = np.random.default_rng(n).standard_normal((n, 2))
    for p in (pts, np.asfortranarray(pts), np.round(pts, 1)):
        want = np.column_stack([p.min(axis=0), p.max(axis=0)])
        got = bounding_box(p)
        assert got.shape == (2, 2) and got.dtype == np.float64
        assert np.array_equal(got, want)


@st.composite
def grid_cases(draw):
    """Points, bins and a range for the grid counter: values drawn from the
    range's own edges, their float neighbours, points beyond it and points
    inside; a range from a few ulps to thousands wide, or the points' own
    bounding box; sometimes a constant column.  Cells narrower than a normal
    float are left to the test that they are refused."""
    bins = draw(st.integers(2, 60))
    lo = draw(st.floats(-1e6, 1e6))
    width = draw(st.one_of(st.floats(1e-3, 1e3),
                           st.integers(1, 300).map(lambda k: k * np.spacing(abs(lo) or 1.0))))
    hi = lo + width
    edges = np.linspace(lo, hi, bins + 1)
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = lo + (rng.random((n, 2)) * 1.4 - 0.2) * (hi - lo)
    on_edge = rng.random((n, 2)) < draw(st.sampled_from([0.0, 0.3]))
    pts[on_edge] = rng.choice(edges, on_edge.sum())
    nudged = rng.random((n, 2)) < 0.05
    pts[nudged] = np.nextafter(pts[nudged], rng.choice([-np.inf, np.inf], nudged.sum()))
    if draw(st.booleans()):
        pts[:, draw(st.integers(0, 1))] = pts[0, 0]
    if draw(st.booleans()):
        box = bounding_box(pts)
    else:
        box = np.array([[lo, hi], [lo, hi]])
    widths = box[:, 1] - box[:, 0]
    assume(np.all((widths == 0) | (widths / bins >= np.finfo(np.float64).tiny)))
    return pts, bins, box


@settings(max_examples=300, deadline=None)
@given(case=grid_cases())
def test_grid_counts_equal_numpy_histogram(case):
    pts, bins, box = case
    want, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=bins, range=[tuple(b) for b in box])
    got = audits._grid_counts(pts, bins, box)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("guess", [0.0, 0.3, 1.0, 4.0])
def test_digitize_equals_numpy_digitize_whatever_the_guess(guess):
    # guess scales the right bins-per-unit (5): a poor guess only costs corrections
    edges = np.linspace(-1.0, 1.0, 11)
    values = np.concatenate([np.random.default_rng(3).uniform(-1.5, 1.5, 2000), edges,
                             np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    got = audits._digitize(values, edges, guess * 5.0)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.digitize(values, edges))


@pytest.mark.parametrize("bins", [40, 7])
@pytest.mark.parametrize("decimals", [None, 2])
def test_relation_identical_to_twelve_sort_reference_at_uneven_bins(bins, decimals):
    # 20_011 is divisible by neither 40 nor 7, so both runs of equal-size bins
    # are non-empty; decimals=2 gives heavy ties (the stable-sort rank path)
    Z, Zp = paired(n=20_011, seed=8)
    if decimals is not None:
        Z = Dataset(points=np.round(Z.points, decimals), label=LATENT_Z, seed=8)
        Zp = as_zprime(np.round(Zp.points, decimals), seed=8)
    assert_same_relation(check_coordinatewise_relation(Z, Zp, bins=bins),
                         reference_relation(Z, Zp, bins=bins))


@pytest.mark.parametrize(
    "zp",
    [
        lambda z: z,  # increasing, increasing
        lambda z: np.column_stack([-z[:, 1], z[:, 0] ** 3]),  # swapped, one decreasing
        lambda z: np.round(z * np.array([1.0, -1.0]), 1),  # heavy ties
        lambda z: np.column_stack([z[:, 0], np.zeros(len(z))]),  # a constant column: NaN
        lambda z: sa.mpa_forward(default_swirl(), z),  # non-monotone
    ],
)
def test_relation_notes_equal_rank_correlation_notes(zp):
    Z = sa.sample_uniform_square(5000, 31)
    Zp = as_zprime(zp(Z.points))
    verdict = check_coordinatewise_relation(Z, Zp, bins=20)
    # the notes' correlations are Spearman's rho of the doubled int32 ranks, within 2 ulp
    # of its exact value: the cross sum and the spreads in Python integers, the root in mpmath
    for j, k in enumerate(verdict.best_assignment):
        x, y = Zp.points[:, k], Z.points[:, j]
        (rx, _, spread_x), (ry, _, spread_y) = _doubled_ranks(x), _doubled_ranks(y)
        assert rx.dtype == np.int32
        assert np.array_equal(rx, 2 * stats.rankdata(x))
        cx, cy = ([int(r) - Z.n - 1 for r in 2 * stats.rankdata(v)] for v in (x, y))
        assert (spread_x, spread_y) == (sum(c * c for c in cx), sum(c * c for c in cy))
        rho = _correlation(rx, ry, spread_x, spread_y)
        if spread_x and spread_y:
            with mpmath.workdps(40):
                exact = sum(a * b for a, b in zip(cx, cy)) / mpmath.sqrt(spread_x * spread_y)
                assert abs(rho - exact) <= 2 * math.ulp(rho)
        else:
            assert math.isnan(rho)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", stats.ConstantInputWarning)
            spearman = stats.spearmanr(x, y).statistic
        assert verdict.monotonicity[j] == audits._monotonicity_note(spearman)


@st.composite
def rank_clouds(draw, n):
    """Two paired clouds of ``n`` points (a small n drawn if None), each column distinct,
    rounded to ties, a few values repeated, signed zeros among rounded values, or constant."""
    n = n or draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(4):
        kind = draw(st.sampled_from(["distinct", "ties", "repeated", "signed zeros", "constant"]))
        v = rng.standard_normal(n)
        if kind == "ties":
            v = np.round(v, draw(st.integers(0, 2)))
        elif kind == "repeated":
            v = rng.choice(v[:draw(st.integers(1, 5))], n)
        elif kind == "signed zeros":
            v = np.where(rng.random(n) < 0.3, rng.choice([-0.0, 0.0], n), np.round(v, 1))
        elif kind == "constant":
            v = np.full(n, v[0])
        columns.append(v)
    return (Dataset(points=np.column_stack(columns[:2]), label=LATENT_Z, seed=0),
            as_zprime(np.column_stack(columns[2:])))


BLOCK = audits.BLOCK_ROWS


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, None])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), bins=st.integers(2, 50))
def test_blocked_rank_sums_equal_python_integer_sums(n, data, bins):
    # n straddles the relation's row blocks, or is small (None)
    Z, Zp = data.draw(rank_clouds(n))
    n = Z.n
    ranked = [_doubled_ranks(column) for column in (*Z.points.T, *Zp.points.T)]
    for column, (ranks, _, spread) in zip((*Z.points.T, *Zp.points.T), ranked):
        assert np.array_equal(ranks, 2 * stats.rankdata(column))
        assert spread == sum((int(r) - n - 1) ** 2 for r in ranks)
    for j in range(2):
        (rx, _, sx), (ry, _, sy) = ranked[2 + j], ranked[j]
        rho = _correlation(rx, ry, sx, sy)
        if sx and sy:
            assert abs(rho - stats.spearmanr(Zp.points[:, j], Z.points[:, j]).statistic) <= 1e-12
        else:  # a constant column has no rank correlation, and so no direction
            assert math.isnan(rho)
            assert audits._monotonicity_note(rho) == "non-monotone"
    bins = min(bins, n // 50)
    if bins >= 2:
        assert_same_relation(check_coordinatewise_relation(Z, Zp, bins=bins),
                             reference_relation(Z, Zp, bins=bins))


@pytest.mark.parametrize("kind", [None, 2, "ulps", "ulps-tied"])
def test_relation_peak_memory_is_at_most_32_bytes_per_row(kind):
    # 16 bytes per row for the four int32 rank columns, and at most one full-length
    # working pair beside them: the packed sort keys, or a places-and-scatter pair;
    # kind=2 rounds to 2 decimals and takes the tied path, its reversed sorts and the
    # sorts of its ranks; "ulps" puts every value of a column within n ulps of 1, so each column's
    # packed keys share their top bits and make one run longer than a block, sorted in
    # place; "ulps-tied" makes that run of values tied in threes
    n = 200_000
    Z, Zp = paired(n=n, seed=3)
    if kind in ("ulps", "ulps-tied"):
        rng = np.random.default_rng(3)
        step = 3 if kind == "ulps-tied" else 1

        def near_one():  # two columns, each 1 plus a shuffled 0, ..., n - 1 ulps // step
            return 1.0 + (rng.permuted(np.tile(np.arange(n), (2, 1)), axis=1).T // step) * 2.0**-52
        Z = Dataset(points=near_one(), label=LATENT_Z, seed=3)
        Zp = as_zprime(near_one(), seed=3)
    elif kind is not None:
        Z = Dataset(points=np.round(Z.points, kind), label=LATENT_Z, seed=3)
        Zp = as_zprime(np.round(Zp.points, kind), seed=3)
    tracemalloc.start()
    try:
        check_coordinatewise_relation(Z, Zp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n + 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.7e308])
def test_support_grid_rejects_a_non_finite_range_as_the_histogram_does(bad):
    # 1.7e308 next to -1.7e308: the bounding box is finite, its width is not
    pts = np.random.default_rng(0).random((100, 2))
    pts[3, 1], pts[4, 1] = bad, -1.7e308
    box = bounding_box(pts)
    with pytest.raises(ValueError), np.errstate(all="ignore"):
        np.histogram2d(pts[:, 0], pts[:, 1], bins=10, range=[tuple(b) for b in box])
    with pytest.raises(ValueError, match="not finite"), np.errstate(all="ignore"):
        audits._grid_counts(pts, 10, box)
    if np.isfinite(bad):  # a dataset holds finite points only
        with pytest.raises(ValueError, match="not finite"), np.errstate(all="ignore"):
            check_independent_support(as_zprime(pts), 2)


def test_grid_counts_refuse_cells_narrower_than_a_normal_float():
    # linspace's step is subnormal here, and its edges can run backwards
    tiny = np.finfo(np.float64).tiny
    pts = np.array([[0.0, 0.0], [tiny, 1.0]])
    with pytest.raises(ValueError, match="too narrow for 2 bins"):
        audits._grid_counts(pts, 2, bounding_box(pts))
    assert audits._grid_counts(pts, 1, bounding_box(pts)).sum() == 2.0


@pytest.mark.parametrize("n", [16383, 16384, 16385, 49153])
def test_grid_counts_equal_numpy_histogram_across_blocks(n):
    assert audits.BLOCK_ROWS == 16384
    pts = np.random.default_rng(n).uniform(-1.2, 1.2, (n, 2))
    # the edges and their float neighbours in the last rows, and outliers throughout
    edges = np.linspace(-1.0, 1.0, 11)
    pts[-12:-1, 0] = edges
    pts[-12:-1, 1] = np.nextafter(edges, -np.inf)
    for box in (np.array(audits._SQUARE), bounding_box(pts)):
        want, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=10, range=[tuple(b) for b in box])
        assert np.array_equal(audits._grid_counts(pts, 10, box), want)


def reference_max_distance(f, points, targets):
    """``_max_distance`` as one ``np.hypot`` over every row of each block."""
    rows = audits.BLOCK_ROWS
    return np.max([np.hypot(*(np.asarray(f(points[start:start + rows]), dtype=np.float64)
                              - targets[start:start + rows]).T).max()
                   for start in range(0, len(points), rows)])


def hypot_order_flips(radius, seed=1):
    """Pairs of rows ``(a, b)`` with ``hypot(a) > hypot(b)`` but ``a``'s squared length
    below ``b``'s, found among points rounded onto the circle of ``radius``."""
    t = np.random.default_rng(seed).random(100_000) * 2 * np.pi
    pts = np.column_stack([np.cos(t), np.sin(t)]) * radius
    sq = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    h = np.hypot(pts[:, 0], pts[:, 1])
    values = np.unique(h)
    pairs = []
    for lower, upper in zip(values[:-1], values[1:]):
        above, below = np.flatnonzero(h == upper), np.flatnonzero(h == lower)
        a, b = above[np.argmin(sq[above])], below[np.argmax(sq[below])]
        if sq[b] > sq[a]:
            pairs.append(pts[[a, b]])
    return pairs


@pytest.mark.parametrize("radius", [0.9, 3.7, 1e-150, 1e150, 1e-155, 1e-161])
def test_max_distance_takes_hypot_where_the_squares_order_the_rows_otherwise(radius):
    # a row of the largest hypot can have the smaller square: the margin must keep it, and
    # a block of subnormal squares (radius 1e-155 and less) must take every row
    pairs = hypot_order_flips(radius)
    assert pairs
    for pair in pairs:
        for rows in (pair, pair[::-1], np.concatenate([pair, pair * 0.5])):
            got = audits._max_distance(lambda z: z, rows, np.zeros_like(rows))
            assert got == np.hypot(*pair[0]) == reference_max_distance(lambda z: z, rows,
                                                                        np.zeros_like(rows))


@st.composite
def distance_cases(draw):
    """Rows at one scale, from subnormal squares to overflowing ones, on a circle (so the
    distances are within a few ulp) or Gaussian; with NaN, infinities, zeros, huge and
    tiny coordinates put in, and the largest row copied (tied maxima); n straddles blocks."""
    rows = audits.BLOCK_ROWS
    n = draw(st.sampled_from([1, 2, 5, 300, rows - 1, rows, rows + 1, 2 * rows + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1e-170, 1e-161, 1e-150, 1e-5, 1.0, 1e150, 1e154,
                                  1e155, 1e200, 1e300]))
    if draw(st.booleans()):
        t = rng.random(n) * 2 * np.pi
        diff = np.column_stack([np.cos(t), np.sin(t)]) * scale
    else:
        diff = rng.standard_normal((n, 2)) * scale
    for row, col, value in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, 1),
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e155, -3e200, 1e-161, 5e-324])),
            max_size=4)):
        diff[row, col] = value
    if draw(st.booleans()):
        length = np.hypot(diff[:, 0], diff[:, 1])
        top = diff[np.argmax(np.where(np.isnan(length), -np.inf, length))]
        copies = rng.integers(0, n, 3)
        diff[copies] = top
        diff[copies[0]] = top[::-1]
    if draw(st.booleans()):
        diff[:] = 0.0
    targets = np.zeros_like(diff) if draw(st.booleans()) else rng.standard_normal((n, 2))
    return diff + targets, targets


@settings(max_examples=150, deadline=None)
@given(case=distance_cases())
def test_max_distance_equals_the_full_hypot(case):
    points, targets = case
    with np.errstate(all="ignore"):
        want = reference_max_distance(lambda z: z, points, targets)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = audits._max_distance(lambda z: z, points, targets)
    assert type(got) is np.float64
    assert float(got).hex() == float(want).hex()
