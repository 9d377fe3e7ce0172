"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.  Parameters are the package defaults (a = 3.6,
c = 0.9, shear mixing, n = 1e5) unless a criterion states otherwise.
"""

import functools
from pathlib import Path

import numpy as np

import swirlaudit as sa
from swirlaudit.audits import NOT_COORDINATE_WISE, check_independent_support, run_audit
from swirlaudit.cli import main
from swirlaudit.figures import swirl_profile

A_ROWS = (1.0, 0.5, 0.0, 1.0)
N = 100_000
SEEDS = range(1, 21)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {number} {name}: FAIL", flush=True)
                raise
            print(f"[acceptance] {number} {name}: PASS", flush=True)
        return wrapper
    return decorate


@criterion(1, "counterexample-certification")
def test_counterexample_certified_across_seeds():
    A = sa.Mixing2.from_rows(*A_ROWS)
    p = sa.MpaParams(3.6, 0.9)
    for seed in SEEDS:
        report = run_audit(A, p, N, seed)
        assert {p.name: p.passed for p in report.premises} == {
            "continuity": True,
            "sigma-algebra": True,
            "compact-support": True,
            "independent-support-Z": True,
            "independent-support-Zprime": True,
        }, f"seed {seed}: premises"
        assert report.uniformity_pvalue_zprime > 0.001, f"seed {seed}: uniformity"
        assert report.conclusion.verdict == NOT_COORDINATE_WISE, f"seed {seed}: verdict"
        assert report.counterexample_certified, f"seed {seed}: certification"


@criterion(2, "soundness-control")
def test_degenerate_swirl_is_coordinate_wise_across_seeds():
    A = sa.Mixing2.from_rows(*A_ROWS)
    p = sa.MpaParams.degenerate_fixture(0.9)
    for seed in SEEDS:
        report = run_audit(A, p, N, seed)
        assert report.conclusion.is_coordinate_wise, f"seed {seed}: false counterexample"
        assert not report.counterexample_certified


@criterion(3, "measure-preservation")
def test_jacobian_determinant_unity_at_probe_points():
    p = sa.MpaParams(3.6, 0.9)
    rng = np.random.default_rng(2024)
    probes = []
    while len(probes) < 1000:
        z = rng.random(2) * 2.0 - 1.0
        if abs(np.hypot(z[0], z[1]) - p.c) > 1e-3:
            probes.append(z)
    worst = max(
        abs(sa.jacobian_det_fd(lambda z: sa.mpa_forward(p, z), z, 1e-5,
                               discontinuity_radius=p.c) - 1.0)
        for z in probes
    )
    assert worst < 1e-6, f"max ||det J| - 1| = {worst:.3e}"


@criterion(4, "exact-inversion")
def test_roundtrip_error_below_1e12():
    p = sa.MpaParams(3.6, 0.9)
    z = sa.sample_uniform_square(N, seed=314).points
    err = np.abs(sa.mpa_inverse(p, sa.mpa_forward(p, z)) - z).max()
    assert err < 1e-12, f"max round-trip error = {err:.3e}"


@criterion(5, "radius-preservation")
def test_radius_error_below_1e12():
    p = sa.MpaParams(3.6, 0.9)
    z = sa.sample_uniform_square(N, seed=271).points
    swirled = sa.mpa_forward(p, z)
    err = np.abs(
        np.hypot(swirled[:, 0], swirled[:, 1]) - np.hypot(z[:, 0], z[:, 1])
    ).max()
    assert err < 1e-12, f"max radius drift = {err:.3e}"


@criterion(6, "independent-support-discriminator")
def test_square_passes_disk_fails_over_100_trials():
    square_ok = disk_flagged = 0
    for trial in range(100):
        square = sa.sample_uniform_square(N, seed=10_000 + trial)
        disk = sa.sample_uniform_disk(N, seed=20_000 + trial)
        square_ok += check_independent_support(square, 10)[0]
        disk_flagged += not check_independent_support(disk, 10)[0]
    assert square_ok >= 99, f"square passed only {square_ok}/100"
    assert disk_flagged >= 99, f"disk flagged only {disk_flagged}/100"


@criterion(7, "swirl-profile")
def test_profile_tracks_rotation_law():
    A = sa.Mixing2.from_rows(*A_ROWS)
    p = sa.MpaParams(3.6, 0.9)
    Z = sa.sample_uniform_square(N, seed=42)
    _, Zp = sa.apply_pipeline(A, p, Z)
    profile = swirl_profile(Z, Zp)

    inside = profile[(profile["r_hi"] <= p.c) & (profile["count"] > 0)]
    assert inside.size > 0
    dev = np.abs(inside["mean_angle"] - p.a * (inside["r_mean"] - p.c)).max()
    assert dev <= 0.02, f"inside-cutoff deviation {dev:.4f} rad"

    outside = profile[(profile["r_lo"] >= p.c) & (profile["count"] > 0)]
    assert outside.size > 0
    drift = np.abs(outside["mean_angle"]).max()
    assert drift <= 1e-6, f"outside-cutoff drift {drift:.3e} rad"


@criterion(8, "byte-reproducibility")
def test_identical_config_gives_identical_csv_bytes(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output_dir = {out}\n", encoding="utf-8")  # defaults otherwise

    names = ("z.csv", "x.csv", "zprime.csv", "swirl_profile.csv")
    assert main(["run", "--config", str(cfg)]) == 0
    first = {name: (out / name).read_bytes() for name in names}
    first_report = (out / "report.json").read_text(encoding="utf-8")

    assert main(["run", "--config", str(cfg)]) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name], f"{name} not byte-identical"
    second_report = (out / "report.json").read_text(encoding="utf-8")
    strip = lambda text: [ln for ln in text.splitlines() if '"timestamp"' not in ln]
    assert strip(first_report) == strip(second_report)
