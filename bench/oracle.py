"""Reference construction and output checks, written without swirlaudit.

Everything here restates the paper's construction with numpy alone, so a
defect in the package cannot hide itself by also being in the check:

* sources ``Z = PCG64(seed).random((n, 2)) * 2 - 1``;
* observations ``X = Z @ A.T``;
* alternates ``Z' = swirl(Z)``: rotation by ``a * (|z| - c)`` inside radius
  ``c``, identity outside, so every point keeps its radius.

Each ``check_*`` function raises :class:`CheckFailed` with a reason.

Certification is not checked as "always true": its uniformity premise is a
chi-square test at level ``ALPHA``, which rejects an exactly uniform sample
with probability ``ALPHA``.  The checks recompute that p-value here and
require the program to report it and to certify exactly when it exceeds
``ALPHA``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import chdtrc

# The package defaults, which the benchmark also writes into every config.
MIXING = (1.0, 0.5, 0.0, 1.0)
SWIRL_A = 3.6
SWIRL_C = 0.9
PROFILE_BIN = 0.01
UNIFORMITY_BINS = 10
ALPHA = 0.001

TOL = 1e-12
CERTIFIED_VERDICT = "not-coordinate-wise"


class CheckFailed(Exception):
    """An output of the program does not meet an invariant."""


def mixing_matrix() -> np.ndarray:
    return np.array(MIXING, dtype=np.float64).reshape(2, 2)


def sources(n: int, seed: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).random((n, 2)) * 2.0 - 1.0


def swirl(z: np.ndarray) -> np.ndarray:
    r = np.hypot(z[:, 0], z[:, 1])
    theta = np.where(r <= SWIRL_C, SWIRL_A * (r - SWIRL_C), 0.0)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    return np.column_stack([cos_t * z[:, 0] - sin_t * z[:, 1],
                            sin_t * z[:, 0] + cos_t * z[:, 1]])


def config_text(n: int, seed: int, output_dir: Path) -> str:
    return (
        f"n = {n}\nseed = {seed}\na = {SWIRL_A!r}\nc = {SWIRL_C!r}\n"
        f"A = {', '.join(repr(v) for v in MIXING)}\nbins_uniformity = {UNIFORMITY_BINS}\n"
        f"alpha = {ALPHA!r}\noutput_dir = {output_dir}\n"
    )


def write_cloud(path: Path, points: np.ndarray, header: str) -> None:
    np.savetxt(path, points, fmt="%.17g", delimiter=",", header=header, comments="")


def read_cloud(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise CheckFailed(f"{path.name}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)


def _expect_files(out: Path, names: set[str]) -> None:
    found = {p.name for p in out.iterdir()}
    if found != names:
        raise CheckFailed(f"output files {sorted(found)}, expected {sorted(names)}")


def check_clouds(out: Path, n: int, seed: int) -> np.ndarray:
    """z.csv bit-equal to the PCG64 sources, x.csv = Z A^T and zprime.csv
    the swirl of Z, both to 1e-12, with every radius kept to 1e-12.
    Returns the points of zprime.csv."""
    z_ref = sources(n, seed)
    z = read_cloud(out / "z.csv", "z1,z2")
    if z.shape != z_ref.shape or not np.array_equal(z.view(np.uint64), z_ref.view(np.uint64)):
        raise CheckFailed("z.csv is not bit-equal to PCG64(seed).random((n, 2)) * 2 - 1")
    x = read_cloud(out / "x.csv", "x1,x2")
    if x.shape != z_ref.shape or np.abs(x - z_ref @ mixing_matrix().T).max() > TOL:
        raise CheckFailed("x.csv differs from Z @ A.T by more than 1e-12")
    zp = read_cloud(out / "zprime.csv", "z1,z2")
    if zp.shape != z_ref.shape:
        raise CheckFailed(f"zprime.csv has shape {zp.shape}, expected {z_ref.shape}")
    drift = np.abs(np.hypot(zp[:, 0], zp[:, 1]) - np.hypot(z_ref[:, 0], z_ref[:, 1])).max()
    if drift > TOL:
        raise CheckFailed(f"zprime.csv changes a radius by {drift:.3g} > 1e-12")
    if np.abs(zp - swirl(z_ref)).max() > TOL:
        raise CheckFailed("zprime.csv differs from the swirl of Z by more than 1e-12")
    return zp


def check_profile(out: Path, n: int) -> None:
    """The swirl profile covers every point and follows ``a * (r - c)``
    in bins inside the cutoff radius and 0 in bins outside it."""
    lines = (out / "swirl_profile.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "r_lo,r_hi,r_mean,count,mean_angle":
        raise CheckFailed(f"swirl_profile.csv header {lines[0]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != math.ceil(math.sqrt(2.0) / PROFILE_BIN):
        raise CheckFailed(f"swirl_profile.csv has {len(rows)} bins")
    if sum(int(r[3]) for r in rows) != n:
        raise CheckFailed("swirl_profile.csv counts do not sum to n")
    for r_lo, r_hi, r_mean, count, angle in rows:
        if count == 0 or r_lo < SWIRL_C < r_hi:
            continue
        expected = SWIRL_A * (r_mean - SWIRL_C) if r_hi <= SWIRL_C else 0.0
        if abs(angle - expected) > 1e-9:
            raise CheckFailed(f"swirl_profile.csv bin {r_lo:.2f}: angle {angle} != {expected}")


def uniformity_pvalue(points: np.ndarray) -> float:
    """Pearson chi-square p-value of ``points`` against Unif([-1, 1]^2) on a
    ``UNIFORMITY_BINS`` x ``UNIFORMITY_BINS`` grid."""
    k = UNIFORMITY_BINS
    edges = np.linspace(-1.0, 1.0, k + 1)
    counts, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=[edges, edges])
    expected = len(points) / (k * k)
    return float(chdtrc(k * k - 1, ((counts - expected) ** 2 / expected).sum()))


def check_verdict(verdict: str, pvalue: float, certified: bool, p_ref: float,
                  external: bool = False) -> None:
    """The relation verdict is ``not-coordinate-wise``, the uniformity
    p-value matches ``p_ref`` and, except for external clouds (which never
    certify: they have no analytic maps), certification follows it."""
    if verdict != CERTIFIED_VERDICT:
        raise CheckFailed(f"verdict {verdict!r}")
    if not math.isclose(pvalue, p_ref, rel_tol=1e-6, abs_tol=1e-12):
        raise CheckFailed(f"uniformity p-value {pvalue!r}, recomputed {p_ref!r}")
    if not external and certified is not (p_ref > ALPHA):
        raise CheckFailed(f"certified = {certified} with uniformity p-value {p_ref:.3g}")


def _no_constants(name):
    raise CheckFailed(f"report.json holds the non-JSON constant {name}")


def check_report(out: Path, p_ref: float, external: bool) -> dict:
    """report.json is strict JSON, every premise passes and the verdict
    checks out (:func:`check_verdict`).  An external report marks continuity
    and sigma-algebra ``pass: null`` instead: no analytic maps exist."""
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"),
                     parse_constant=_no_constants)
    skipped = {"continuity", "sigma-algebra"} if external else set()
    for premise in doc["premises"]:
        if premise["pass"] is not (None if premise["name"] in skipped else True):
            raise CheckFailed(f"premise {premise['name']}: pass = {premise['pass']}")
    check_verdict(doc["relation"]["verdict"], doc["uniformity_pvalue"],
                  doc["counterexample_certified"], p_ref, external)
    return doc


def check_svgs(out: Path, n: int) -> None:
    for name in ("z.svg", "x.svg", "zprime.svg"):
        data = (out / name).read_bytes()
        if not data.startswith(b"<svg") or not data.endswith(b"</svg>\n"):
            raise CheckFailed(f"{name} is not a complete SVG document")
        if data.count(b"<circle ") != n:
            raise CheckFailed(f"{name} draws {data.count(b'<circle ')} points, expected {n}")


def check_run(out: Path, n: int, seed: int) -> bool:
    """Checks a ``run`` bundle; returns whether it certified."""
    _expect_files(out, {"z.csv", "x.csv", "zprime.csv", "swirl_profile.csv", "report.json"})
    zp = check_clouds(out, n, seed)
    check_profile(out, n)
    return check_report(out, uniformity_pvalue(zp), external=False)["counterexample_certified"]


def check_figures(out: Path, n: int, seed: int) -> None:
    _expect_files(out, {"z.csv", "x.csv", "zprime.csv", "swirl_profile.csv",
                        "z.svg", "x.svg", "zprime.svg"})
    check_clouds(out, n, seed)
    check_profile(out, n)
    check_svgs(out, n)


def check_external(out: Path, zprime_input: np.ndarray) -> None:
    _expect_files(out, {"report.json"})
    doc = check_report(out, uniformity_pvalue(zprime_input), external=True)
    if doc["parameters"]["n"] != len(zprime_input):
        raise CheckFailed(f"report covers n = {doc['parameters']['n']}")


def check_audit_report(report, n: int, seed: int) -> bool:
    """Checks an in-process ``AuditReport``; returns whether it certified."""
    if not report.premises_pass:
        raise CheckFailed("a premise failed")
    check_verdict(report.conclusion.verdict, report.uniformity_pvalue_zprime,
                  report.counterexample_certified, uniformity_pvalue(swirl(sources(n, seed))))
    return report.counterexample_certified


def output_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every output file; report.json without its timestamp line."""
    hashes = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if b'"timestamp":' not in line)
        hashes[path.name] = hashlib.sha256(data).hexdigest()
    return hashes
