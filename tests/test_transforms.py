"""Tests for the generative pipeline and the swirl transform."""

import contextlib
import io
import sys
import tempfile
import threading
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import event, given, settings
from hypothesis import strategies as st

import swirlaudit as sa
from swirlaudit.audits import generate
from swirlaudit.cli import EXIT_CONFIG, main
from swirlaudit.errors import (
    EmptyDatasetError,
    IllConditionedPointError,
    InvalidPointError,
    LabelMismatchError,
)
from swirlaudit.reporting import load_external_cloud, write_cloud_csv
from swirlaudit.transforms import (
    DET_EPSILON,
    LATENT_Z,
    LATENT_ZPRIME,
    OBSERVED_X,
    SIGMA_PROXY_TOL,
    Dataset,
)

A_DEFAULT = lambda: sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0)
P_DEFAULT = lambda: sa.MpaParams(3.6, 0.9)

# Rotation of (0.5, 0) by theta = 3.6*(0.5-0.9) = -1.44 rad, evaluated with
# 40-digit arithmetic (mpmath) and frozen here.
SWIRL_HALF_X = 0.065211854369072746
SWIRL_HALF_Y = -0.49572917409584323


# ---------------------------------------------------------------------------
# parameter and dataset types


def test_mpa_params_validation():
    with pytest.raises(ValueError):
        sa.MpaParams(a=3.6, c=1.5)
    with pytest.raises(ValueError):
        sa.MpaParams(a=3.6, c=0.0)
    with pytest.raises(ValueError):
        sa.MpaParams(a=0.0, c=0.9)
    fixture = sa.MpaParams.degenerate_fixture(0.9)
    assert fixture.a == 0.0 and fixture.degenerate


@pytest.mark.parametrize("kwargs, keys", [
    ({"a": 0.0, "c": 2.0}, ["c", "a"]),
    ({"a": 3.6, "c": np.nan}, ["c", "a, c"]),
    ({"a": np.inf, "c": 0.9}, ["a, c"]),
    ({"a": 3.6, "c": 0.9, "degenerate": True}, ["a"]),
    ({"a": "3.6", "c": 0.9}, ["a"]),
])
def test_mpa_params_names_every_broken_rule(kwargs, keys):
    with pytest.raises(ValueError) as exc:
        sa.MpaParams(**kwargs)
    assert [problem.split(":")[0] for problem in str(exc.value).split("; ")] == keys


def test_mixing_rejects_near_singular():
    with pytest.raises(ValueError):
        sa.Mixing2.from_rows(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sa.Mixing2.from_rows(1.0, 1.0, 1.0, 1.0 + 5e-10)


def test_mixing_inverse_is_cached_and_exact():
    A = sa.Mixing2.from_rows(2.0, 1.0, -1.0, 3.0)
    assert A.det == pytest.approx(7.0)
    np.testing.assert_allclose(A.matrix @ A.inverse, np.eye(2), atol=1e-12, rtol=0)


@st.composite
def mixing_rows(draw):
    """Row-major 2x2 entries with |det| from just above DET_EPSILON to 1e3.

    The last entry is solved for the drawn determinant, so a small determinant
    beside entries up to 1e3 gives badly conditioned matrices (|A||A^-1| up
    to ~1e15); rounding moves the computed determinant to either side of
    DET_EPSILON near it.
    """
    sign = st.sampled_from([-1.0, 1.0])
    a, b, c = (draw(sign) * 10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3))
    det = draw(sign) * DET_EPSILON * 10.0 ** draw(st.floats(0.0, 12.0, exclude_min=True))
    return a, b, c, (b * c + det) / a


@settings(max_examples=300, deadline=None)
@given(rows=mixing_rows(), seed=st.integers(0, 2**32 - 1))
def test_mixing_accepts_only_matrices_it_inverts(rows, seed):
    try:
        A = sa.Mixing2.from_rows(*rows)
    except ValueError as exc:
        event("rejected")
        # the config file fails the same way, at config time
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(f"A = {', '.join(map(repr, rows))}\n", encoding="utf-8")
            assert main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")]) == EXIT_CONFIG
            assert not (Path(tmp) / "out").exists()
        assert f"A: {exc}" in err.getvalue()
        return
    event("accepted")
    # Each product rounds within 2 eps of |A^-1||A||z|, and the rounded det A
    # inside the adjugate inverse within eps of the same, so for z in the square
    # the round trip stays within a small multiple of eps * ||A^-1| |A|||_inf;
    # the largest ratio measured over 4e4 accepted matrices was 1.95 eps.
    z = sa.sample_uniform_square(2000, seed).points
    skeel = (np.abs(A.inverse) @ np.abs(A.matrix)).sum(axis=1).max()
    assert np.abs(sa.unmix(A, sa.mix(A, z)) - z).max() <= 8 * np.finfo(float).eps * skeel
    # and within what the audit's sigma-algebra premise tolerates
    assert np.abs(sa.unmix(A, sa.mix(A, z)) - z).max() <= SIGMA_PROXY_TOL


# Inverted to 1e-12 by A @ inv(A), yet unmix(mix(z)) loses ~1.7e-7 on the
# square: at n = 20000, seed 7, `run` used to fail its sigma-algebra premise
# (statistic 3.3e-7 > 1e-9) on the mixing's round-off, not on the swirl.
ROUND_OFF_ROWS = (-460.0537357728445, -0.0057663714346449435,
                  -154.40799099889364, -0.0019350569617047374)


def test_mixing_rejects_a_round_trip_the_audit_cannot_tell_from_the_swirl(tmp_path, capsys):
    with pytest.raises(ValueError, match="too ill-conditioned for the audit"):
        sa.Mixing2.from_rows(*ROUND_OFF_ROWS)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"A = {', '.join(map(repr, ROUND_OFF_ROWS))}\nn = 20000\nseed = 7\n",
                   encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "A: mixing matrix too ill-conditioned for the audit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dataset_validation():
    with pytest.raises(EmptyDatasetError):
        Dataset(points=np.empty((0, 2)), label=LATENT_Z, seed=0)
    with pytest.raises(InvalidPointError):
        Dataset(points=np.array([[0.0, np.nan]]), label=LATENT_Z, seed=0)
    with pytest.raises(LabelMismatchError):
        Dataset(points=np.zeros((1, 2)), label="mystery", seed=0)
    d = Dataset(points=np.zeros((3, 2)), label=LATENT_Z, seed=0)
    assert d.n == 3
    with pytest.raises(ValueError):
        d.points[0, 0] = 1.0  # immutable


@pytest.mark.parametrize("refused, error", [
    (lambda: sa.mix(A_DEFAULT(), np.zeros(3)), InvalidPointError),
    (lambda: sa.Mixing2(np.eye(3)), ValueError),
    (lambda: sa.Mixing2.from_rows(1.0, np.inf, 0.0, 1.0), ValueError),
    (lambda: Dataset(points=np.zeros(3), label=LATENT_Z, seed=0), InvalidPointError),
    (lambda: Dataset(points=np.zeros((3, 2, 2)), label=LATENT_Z, seed=0), InvalidPointError),
    (lambda: sa.sample_uniform_disk(0, seed=1), EmptyDatasetError),
    (lambda: sa.jacobian_det_fd(lambda z: z, np.zeros((2, 2))), InvalidPointError),
], ids=["mix-axis", "mixing-3x3", "mixing-inf", "dataset-1d", "dataset-3d",
        "disk-empty", "jacobian-two-points"])
def test_refused_inputs_raise_their_error(refused, error):
    with pytest.raises(error):
        refused()


def test_dataset_points_are_column_major_and_read_only_from_every_constructor(tmp_path):
    rows = np.arange(12.0).reshape(6, 2)
    write_cloud_csv(tmp_path / "cloud.csv", rows)
    made = {
        "direct": Dataset(points=rows, label=LATENT_Z, seed=0),
        "direct-column-major": Dataset(points=np.asfortranarray(rows), label=LATENT_Z, seed=0),
        "square": sa.sample_uniform_square(1000, seed=1),
        "disk": sa.sample_uniform_disk(1000, seed=1),
        **dict(zip(("Z", "X", "Zprime"), generate(A_DEFAULT(), P_DEFAULT(), 1000, 1))),
        "external": load_external_cloud(tmp_path / "cloud.csv", LATENT_Z),
    }
    for name, D in made.items():
        assert D.points.flags.f_contiguous and not D.points.flags.writeable, name
        assert D.points.shape == (D.n, 2), name
    assert made["direct"].points.tobytes() == made["external"].points.tobytes() == rows.tobytes()
    assert not np.shares_memory(made["direct-column-major"].points, rows)  # still a copy


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_dataset_refuses_a_seed_that_is_no_nonnegative_integer(seed):
    with pytest.raises(ValueError, match=r"^seed: must be "):
        Dataset(points=np.zeros((1, 2)), label=LATENT_Z, seed=seed)


# ---------------------------------------------------------------------------
# sampling


def test_sample_uniform_square_basic():
    d = sa.sample_uniform_square(4, seed=7)
    assert d.n == 4 and d.label == LATENT_Z and d.seed == 7
    assert np.all(d.points >= -1.0) and np.all(d.points <= 1.0)


def test_sample_uniform_square_deterministic():
    a = sa.sample_uniform_square(1000, seed=13)
    b = sa.sample_uniform_square(1000, seed=13)
    assert np.array_equal(a.points, b.points)
    c = sa.sample_uniform_square(1000, seed=14)
    assert not np.array_equal(a.points, c.points)


def test_sample_uniform_square_marginal_means():
    # Independent oracle: a different bit generator (MT19937) at n=1e6 puts
    # the marginal means well inside +-0.005, so +-0.02 at n=1e5 is generous.
    oracle = np.random.Generator(np.random.MT19937(99)).random((1_000_000, 2)) * 2 - 1
    assert np.all(np.abs(oracle.mean(axis=0)) < 0.005)
    d = sa.sample_uniform_square(100_000, seed=1)
    assert np.all(np.abs(d.points.mean(axis=0)) < 0.02)


def test_sample_uniform_square_empty_raises():
    with pytest.raises(EmptyDatasetError):
        sa.sample_uniform_square(0, seed=1)


def test_sample_uniform_disk_inside_radius():
    d = sa.sample_uniform_disk(10_000, seed=2)
    assert d.radii().max() <= 1.0


# ---------------------------------------------------------------------------
# mixing


def test_mix_examples():
    ident = sa.Mixing2(np.eye(2))
    np.testing.assert_array_equal(sa.mix(ident, [0.3, -0.5]), [0.3, -0.5])
    shear = A_DEFAULT()
    np.testing.assert_allclose(sa.mix(shear, [1.0, 1.0]), [1.5, 1.0], rtol=0, atol=0)
    perm = sa.Mixing2.from_rows(0.0, 1.0, 1.0, 0.0)
    np.testing.assert_array_equal(sa.mix(perm, [0.2, 0.9]), [0.9, 0.2])


def test_unmix_examples():
    ident = sa.Mixing2(np.eye(2))
    np.testing.assert_array_equal(sa.unmix(ident, [0.4, 0.4]), [0.4, 0.4])
    double = sa.Mixing2.from_rows(2.0, 0.0, 0.0, 2.0)
    np.testing.assert_array_equal(sa.unmix(double, [1.0, -1.0]), [0.5, -0.5])


@pytest.mark.parametrize(
    "rows",
    [
        (1.0, 0.5, 0.0, 1.0),
        (0.3, -1.2, 0.8, 0.9),
        (2.0, 0.0, 0.0, 0.25),
    ],
)
def test_unmix_roundtrip(rows):
    A = sa.Mixing2.from_rows(*rows)
    z = sa.sample_uniform_square(100_000, seed=21).points
    err = np.abs(sa.unmix(A, sa.mix(A, z)) - z).max()
    assert err < 1e-12


@pytest.mark.parametrize("n", [1, 16383, 16384, 16385, 40_000])
@pytest.mark.parametrize("A", [A_DEFAULT(), sa.Mixing2.from_rows(2.0, 1.0, 1.0, 3.0)])
def test_maps_give_the_same_bits_for_either_layout(n, A):
    z = sa.sample_uniform_square(n, seed=n).points.copy()
    z[:len(SWIRL_EDGE_POINTS[:n])] = SWIRL_EDGE_POINTS[:n]
    rows, columns = np.ascontiguousarray(z), np.asfortranarray(z)
    assert rows.flags.c_contiguous and columns.flags.f_contiguous
    p = P_DEFAULT()
    for f in (partial(sa.mix, A), partial(sa.unmix, A), partial(sa.mpa_forward, p),
              partial(sa.mpa_inverse, p)):
        assert f(rows).tobytes() == f(columns).tobytes()
    # a stack of clouds: its swirl stays row-major, as it rotates the rows through a view
    stacked = rows[:n // 3 * 3].reshape(3, -1, 2)
    for f in (partial(sa.mpa_forward, p), partial(sa.mpa_inverse, p), partial(sa.mix, A)):
        assert f(stacked).tobytes() == f(np.asfortranarray(stacked)).tobytes()
    assert np.array_equal(sa.mpa_forward(p, np.asfortranarray(stacked)).view(np.uint64),
                          reference_swirl(p, stacked).view(np.uint64))


def accepted_mixing(rows):
    """The mixing with ``rows``, or None where ``Mixing2`` refuses them."""
    try:
        return sa.Mixing2.from_rows(*rows)
    except ValueError:
        return None


# every mixing that Mixing2 accepts, over the span of mixing_rows()
mixings = mixing_rows().map(accepted_mixing).filter(lambda A: A is not None)

BLOCK = sa.transforms.BLOCK_ROWS
# a block of one row would take numpy's vector path; these put one row past a block edge
BLOCK_EDGE_SIZES = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


@settings(max_examples=60, deadline=None)
@given(A=mixings, n=st.sampled_from(BLOCK_EDGE_SIZES), seed=st.integers(0, 2**32 - 1))
def test_blocked_mixing_gives_the_bits_of_the_whole_array_product(A, n, seed):
    z = sa.sample_uniform_square(n, seed).points
    for points in (z, np.ascontiguousarray(z), z[0], np.stack([z, -z])):  # 2-D, 1-D, 3-D
        x = sa.mix(A, points)
        assert x.shape == points.shape
        assert x.tobytes() == (points @ A.matrix.T).tobytes()
        assert sa.unmix(A, x).tobytes() == (x @ A.inverse.T).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    A=mixings,
    a=st.floats(-1000.0, 1000.0).filter(lambda a: a != 0.0),
    c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n=st.sampled_from(BLOCK_EDGE_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_swirl_gives_the_bits_of_one_thread(A, a, c, n, seed):
    p = sa.MpaParams(a, c)
    Z = sa.sample_uniform_square(n, seed)
    X, Zp = sa.apply_pipeline(A, p, Z)
    assert X.points.tobytes() == sa.mix(A, Z.points).tobytes()
    assert Zp.points.tobytes() == sa.mpa_forward(p, sa.unmix(A, X.points)).tobytes()


def test_shared_swirl_keeps_its_bits_under_frequent_thread_switches():
    # three pipelines at once, each with its worker: six threads, switching
    # every microsecond; a block that both threads or neither swirled would show
    A, p = A_DEFAULT(), P_DEFAULT()
    clouds = [sa.sample_uniform_square(40_000, seed) for seed in range(3)]
    expected = [sa.mpa_forward(p, sa.unmix(A, sa.mix(A, Z.points))).tobytes() for Z in clouds]
    results = [None] * len(clouds)

    def pipeline(k):
        results[k] = sa.apply_pipeline(A, p, clouds[k])[1].points.tobytes()

    callers = [threading.Thread(target=pipeline, args=(k,)) for k in range(len(clouds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == expected


def test_generate_and_apply_pipeline_leave_no_thread():
    threads = threading.active_count()
    Z, _, _ = generate(A_DEFAULT(), P_DEFAULT(), 40_000, 3)
    assert threading.active_count() == threads
    sa.apply_pipeline(A_DEFAULT(), P_DEFAULT(), Z)
    assert threading.active_count() == threads


def first_block_slowed(monkeypatch, then=lambda kernel, *args: kernel(*args)):
    """Replace ``transforms._swirl_rows`` by a wrapper that records each block's first row
    and whether the calling thread swirled it, and that calls ``then(kernel, *args)`` in
    place of the kernel.  The worker's first block sleeps first; the calling thread's
    blocks wait until the worker has started one.  Return the record."""
    kernel, started, ran = sa.transforms._swirl_rows, threading.Event(), []

    def swirl(p, rows, start, stop):
        mine = threading.current_thread() is threading.main_thread()
        ran.append((start, mine))
        if mine:
            assert started.wait(timeout=10)
        elif not started.is_set():
            started.set()
            time.sleep(0.5)
        return then(kernel, p, rows, start, stop)

    monkeypatch.setattr(sa.transforms, "_swirl_rows", swirl)
    return ran


def test_calling_thread_swirls_the_unstarted_tail_of_the_blocks(monkeypatch):
    A, p = A_DEFAULT(), P_DEFAULT()
    Z = sa.sample_uniform_square(3 * BLOCK + 5, 3)
    ran = first_block_slowed(monkeypatch)
    threads = threading.active_count()
    X, Zp = sa.apply_pipeline(A, p, Z)
    assert threading.active_count() == threads
    # the worker sleeps in the first block, so this thread swirls every later one
    assert sorted(ran) == [(0, False), (BLOCK, True), (2 * BLOCK, True), (3 * BLOCK, True)]
    monkeypatch.undo()
    assert Zp.points.tobytes() == sa.mpa_forward(p, sa.unmix(A, X.points)).tobytes()


@pytest.mark.parametrize("where", ["mixing", "calling thread's block", "worker's block"])
def test_pipeline_error_reaches_the_caller_and_the_worker_is_joined(monkeypatch, where):
    def failing_swirl(kernel, p, rows, start, stop):
        on_worker = threading.current_thread() is not threading.main_thread()
        if where == ("worker's block" if on_worker else "calling thread's block"):
            raise RuntimeError(where)
        kernel(p, rows, start, stop)

    def failing_mix(A, z):  # before any thread is started
        raise RuntimeError(where)

    first_block_slowed(monkeypatch, failing_swirl)
    if where == "mixing":
        monkeypatch.setattr(sa.transforms, "mix", failing_mix)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{where}$"):
        generate(A_DEFAULT(), P_DEFAULT(), 40_000, 3)
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# the swirl


def test_swirl_outside_cutoff_is_exact_identity():
    p = P_DEFAULT()
    z = np.array([0.95, 0.0])
    np.testing.assert_array_equal(sa.mpa_forward(p, z), z)
    # every point with radius > c is untouched, bitwise up to signed zeros
    pts = sa.sample_uniform_square(100_000, seed=4).points
    outside = pts[np.hypot(pts[:, 0], pts[:, 1]) > p.c]
    np.testing.assert_array_equal(sa.mpa_forward(p, outside), outside)


def test_swirl_outside_cutoff_keeps_signed_zeros():
    # a rotation by angle 0 computes 1*z0 - 0*z1, which would give +0.0 here
    p = P_DEFAULT()
    z = np.array([[-0.0, -0.95], [0.95, -0.0], [-0.0, 0.95], [0.0, -0.95]])
    out = sa.mpa_forward(p, z)
    assert out.tobytes() == z.tobytes()
    for point in z:
        assert sa.mpa_forward(p, point).tobytes() == point.tobytes()
    assert sa.mpa_inverse(p, z).tobytes() == z.tobytes()


def reference_swirl(p, z):
    """The swirl as one full-array formula: every point rotated, the angle 0 outside
    the cutoff, and the zero coordinates outside patched back."""
    z = np.asarray(z, dtype=np.float64)
    r = np.hypot(z[..., 0], z[..., 1])
    theta = np.where(r <= p.c, p.a * (r - p.c), 0.0)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = np.empty_like(z)
    out[..., 0] = cos_t * z[..., 0] - sin_t * z[..., 1]
    out[..., 1] = sin_t * z[..., 0] + cos_t * z[..., 1]
    zero = np.flatnonzero(z == 0.0)
    zero = zero[r.flat[zero // 2] > p.c]
    out.flat[zero] = z.flat[zero]
    return out


# signed zeros inside and outside the cutoff c = 0.9, and points at radius exactly c
SWIRL_EDGE_POINTS = [[-0.0, 0.5], [0.5, -0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, -0.95],
                     [0.95, -0.0], [-0.0, 0.95], [-0.95, 0.0], [0.9, 0.0], [-0.0, -0.9],
                     [0.54, 0.72], [-0.72, -0.54]]


@pytest.mark.parametrize("n", [16383, 16384, 16385])
@pytest.mark.parametrize("p", [P_DEFAULT(), sa.MpaParams(-3.6, 0.9),
                               sa.MpaParams.degenerate_fixture()])
def test_swirl_blocks_equal_the_full_array_formula(n, p):
    assert sa.transforms.BLOCK_ROWS == 16384 and np.hypot(0.54, 0.72) == 0.9
    z = sa.sample_uniform_square(n, seed=n).points.copy()
    # the edge points first and last; at n = 16385 the last ones span the block boundary
    z[:len(SWIRL_EDGE_POINTS)] = z[-len(SWIRL_EDGE_POINTS):] = SWIRL_EDGE_POINTS
    assert sa.mpa_forward(p, z).view(np.uint64).tobytes() == \
        reference_swirl(p, z).view(np.uint64).tobytes()
    stacked = z[:n // 3 * 3].reshape(3, -1, 2)
    out = sa.mpa_forward(p, stacked)
    assert out.shape == stacked.shape
    assert np.array_equal(out.view(np.uint64), reference_swirl(p, stacked).view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-1000.0, 1000.0).filter(lambda a: a != 0.0),
    c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_swirl_blocks_equal_the_full_array_formula_over_parameters(a, c, seed):
    p = sa.MpaParams(a, c)
    z = np.concatenate([sa.sample_uniform_square(20_000, seed=seed).points,
                        [[c, 0.0], [-0.0, -c], [-0.0, 0.0], [0.0, -0.0]]])
    assert np.array_equal(sa.mpa_forward(p, z).view(np.uint64),
                          reference_swirl(p, z).view(np.uint64))


def points_near_the_cutoff(c, seed, count=2000):
    """Points at radius c moved by up to 8 ulp either way, at random angles, rounded: their
    squared radii and ``np.hypot`` fall on either side of c*c and c."""
    radii = [c]
    for toward in (0.0, 2.0):
        r = c
        for _ in range(8):
            r = np.nextafter(r, toward)
            radii.append(r)
    t = np.random.default_rng(seed).random(count) * 2 * np.pi
    r, t = np.repeat(radii, count), np.tile(t, len(radii))
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


# a rate that turns a point 1 ulp inside the cutoff by a visible angle, at every scale of c
@pytest.mark.parametrize("c, a", [(0.9, 3.6), (0.9, -1000.0), (0.5, 1e3), (0.3141, -7.5),
                                  (1e-100, 1e90), (2.0**-480, 1e130), (1e-160, 1e170)])
def test_swirl_within_8_ulp_of_the_cutoff_equals_the_full_array_formula(c, a):
    p = sa.MpaParams(a, c)
    z = points_near_the_cutoff(c, seed=17)
    assert np.array_equal(sa.mpa_forward(p, z).view(np.uint64),
                          reference_swirl(p, z).view(np.uint64))


@pytest.mark.parametrize("c", [0.9, 0.99, 0.51, 1e-100, 2.0**-480, 1e-160, 5e-324])
def test_inside_cutoff_selects_the_rows_hypot_puts_inside(c):
    z = np.concatenate([points_near_the_cutoff(c, seed=5),
                        [[np.nan, 0.0], [0.0, np.nan], [np.inf, np.nan], [np.inf, 0.0],
                         [-np.inf, -np.inf], [1e200, 0.5], [-3e200, 1e200], [1e-170, -1e-170],
                         [0.0, 0.0], [-0.0, c], [c, -0.0], [5e-324, 0.0]]])
    x, y = z[:, 0], z[:, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside, x_in, y_in, r = sa.transforms._inside_cutoff(x, y, c)
    radii = np.hypot(x, y)
    want = np.flatnonzero(radii <= c)
    assert np.array_equal(inside, want)
    assert r.tobytes() == radii[want].tobytes()
    assert x_in.tobytes() == x[want].tobytes() and y_in.tobytes() == y[want].tobytes()


def test_swirl_leaves_huge_points_and_refuses_non_finite_ones():
    p = P_DEFAULT()
    # their squared radii overflow to inf: outside, as np.hypot has them, and without a warning
    z = np.array([[1e200, 0.5], [-3e200, 1e200], [0.1, -1e200], [1e155, -0.0], [0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sa.mpa_forward(p, z)
    assert out.view(np.uint64).tobytes() == reference_swirl(p, z).view(np.uint64).tobytes()
    assert out[:4].tobytes() == z[:4].tobytes()
    for bad in (np.nan, np.inf, -np.inf):
        for point in ([bad, 0.0], [0.1, bad], [1e200, bad]):
            with pytest.raises(InvalidPointError):
                sa.mpa_forward(p, point)


def test_swirl_boundary_point_fixed():
    # at radius exactly c the rotation angle is zero, so both branches agree
    p = P_DEFAULT()
    np.testing.assert_array_equal(sa.mpa_forward(p, [0.9, 0.0]), [0.9, 0.0])


def test_swirl_interior_oracle_value():
    p = P_DEFAULT()
    out = sa.mpa_forward(p, [0.5, 0.0])
    assert abs(out[0] - SWIRL_HALF_X) < 1e-9
    assert abs(out[1] - SWIRL_HALF_Y) < 1e-9


def test_swirl_rejects_nonfinite():
    p = P_DEFAULT()
    with pytest.raises(InvalidPointError):
        sa.mpa_forward(p, [np.nan, 0.0])
    with pytest.raises(InvalidPointError):
        sa.mpa_inverse(p, [np.inf, 0.0])


def test_swirl_inverse_examples():
    p = P_DEFAULT()
    np.testing.assert_array_equal(sa.mpa_inverse(p, [0.95, 0.0]), [0.95, 0.0])
    back = sa.mpa_inverse(p, [SWIRL_HALF_X, SWIRL_HALF_Y])
    assert abs(back[0] - 0.5) < 1e-8 and abs(back[1]) < 1e-8


def test_swirl_inverse_matches_negated_rate():
    p = P_DEFAULT()
    neg = sa.MpaParams(-3.6, 0.9)
    z = sa.sample_uniform_square(10_000, seed=6).points
    np.testing.assert_array_equal(sa.mpa_inverse(p, z), sa.mpa_forward(neg, z))


def test_swirl_roundtrip_and_radius_preservation():
    p = P_DEFAULT()
    z = sa.sample_uniform_square(100_000, seed=3).points
    fwd = sa.mpa_forward(p, z)
    assert np.abs(sa.mpa_inverse(p, fwd) - z).max() < 1e-12
    r_in = np.hypot(z[:, 0], z[:, 1])
    r_out = np.hypot(fwd[:, 0], fwd[:, 1])
    assert np.abs(r_out - r_in).max() < 1e-12



@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-1000.0, 1000.0).filter(lambda a: a != 0.0),
    c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_swirl_roundtrip_and_radius_preservation_over_parameters(a, c, seed):
    # |a| up to 1000 winds points inside c far more than once around (>> 2*pi);
    # the measured errors are ~2.2e-16*max(1, |a|) (round trip), ~2.2e-16 (radius)
    p = sa.MpaParams(a, c)
    z = sa.sample_uniform_square(2000, seed=seed).points
    fwd = sa.mpa_forward(p, z)
    assert np.abs(sa.mpa_inverse(p, fwd) - z).max() < 1e-12
    r_in = np.hypot(z[:, 0], z[:, 1])
    r_out = np.hypot(fwd[:, 0], fwd[:, 1])
    assert np.abs(r_out - r_in).max() < 1e-12

def test_swirl_boundary_continuity():
    # displacement just inside the cutoff stays below |a|*delta*r + 1e-6
    p = P_DEFAULT()
    delta = 1e-8
    angles = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    for radius in (p.c - delta, p.c + delta):
        ring = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        disp = np.hypot(*(sa.mpa_forward(p, ring) - ring).T).max()
        assert disp <= abs(p.a) * delta * radius + 1e-6


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_identity_mixing_outside_cutoff():
    X, Zp = sa.apply_pipeline(
        sa.Mixing2(np.eye(2)), P_DEFAULT(), Dataset(np.array([[0.95, 0.0]]), LATENT_Z, 0)
    )
    np.testing.assert_array_equal(X.points, [[0.95, 0.0]])
    np.testing.assert_array_equal(Zp.points, [[0.95, 0.0]])
    assert X.label == OBSERVED_X and Zp.label == LATENT_ZPRIME


def test_pipeline_identity_mixing_matches_pointwise_swirl():
    p = P_DEFAULT()
    Z = sa.sample_uniform_square(5000, seed=9)
    _, Zp = sa.apply_pipeline(sa.Mixing2(np.eye(2)), p, Z)
    np.testing.assert_array_equal(Zp.points, sa.mpa_forward(p, Z.points))


def test_pipeline_composition_oracle():
    # the shear leaves (0.5, 0) fixed, so Z' is the pinned swirl image
    X, Zp = sa.apply_pipeline(
        A_DEFAULT(), P_DEFAULT(), Dataset(np.array([[0.5, 0.0]]), LATENT_Z, 0)
    )
    np.testing.assert_allclose(X.points, [[0.5, 0.0]], atol=1e-15, rtol=0)
    assert abs(Zp.points[0, 0] - SWIRL_HALF_X) < 1e-9
    assert abs(Zp.points[0, 1] - SWIRL_HALF_Y) < 1e-9


def test_pipeline_rejects_wrong_label():
    Z = sa.sample_uniform_square(10, seed=0)
    X, _ = sa.apply_pipeline(A_DEFAULT(), P_DEFAULT(), Z)
    with pytest.raises(LabelMismatchError):
        sa.apply_pipeline(A_DEFAULT(), P_DEFAULT(), X)


def test_pipeline_latents_stay_in_square():
    # radius preservation keeps the swirled cloud inside the square
    Z = sa.sample_uniform_square(1_000_000, seed=11)
    _, Zp = sa.apply_pipeline(A_DEFAULT(), P_DEFAULT(), Z)
    assert np.abs(Zp.points).max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# finite-difference Jacobian determinant


def test_jacobian_identity():
    det = sa.jacobian_det_fd(lambda z: z, np.array([0.3, 0.4]), 1e-5)
    assert abs(det - 1.0) < 1e-10


def test_jacobian_constant_linear():
    A = sa.Mixing2.from_rows(2.0, 0.0, 0.0, 3.0)
    det = sa.jacobian_det_fd(lambda z: sa.mix(A, z), np.array([-0.2, 0.7]), 1e-5)
    assert abs(det - 6.0) < 1e-6


def test_jacobian_swirl_measure_preserving_at_symbolic_points():
    # Symbolic oracle: h(z) = R(a(|z|-c)) z has det J = 1 identically on the
    # rotated region; re-derived here with sympy, then compared to the
    # finite-difference estimate at three interior points.
    z1, z2, a, c = sp.symbols("z1 z2 a c", real=True)
    theta = a * (sp.sqrt(z1**2 + z2**2) - c)
    h1 = sp.cos(theta) * z1 - sp.sin(theta) * z2
    h2 = sp.sin(theta) * z1 + sp.cos(theta) * z2
    det = sp.simplify(sp.Matrix([[h1.diff(z1), h1.diff(z2)],
                                 [h2.diff(z1), h2.diff(z2)]]).det())
    assert det == 1

    p = P_DEFAULT()
    for point in [(0.5, 0.0), (0.31, -0.22), (-0.61, 0.55)]:
        est = sa.jacobian_det_fd(
            lambda z: sa.mpa_forward(p, z), np.array(point), 1e-5, discontinuity_radius=p.c
        )
        assert abs(est - 1.0) < 1e-6


def test_jacobian_rejects_probe_near_discontinuity():
    with pytest.raises(IllConditionedPointError):
        sa.jacobian_det_fd(lambda z: z, np.array([0.9 + 5e-5, 0.0]), 1e-5,
                           discontinuity_radius=0.9)


def test_jacobian_rejects_bad_step():
    with pytest.raises(ValueError):
        sa.jacobian_det_fd(lambda z: z, np.array([0.1, 0.1]), 0.0)
