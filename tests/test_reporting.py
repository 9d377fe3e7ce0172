"""Tests for CSV point-cloud persistence, profile tables, and JSON reports."""

import json
import math
import tracemalloc
import xml.etree.ElementTree as ET
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import swirlaudit as sa
from swirlaudit import figures
from swirlaudit.audits import _sort_order
from swirlaudit.errors import EmptyDatasetError, MalformedRowError, PairingError
from swirlaudit.figures import swirl_profile
from swirlaudit.reporting import (
    _read_rows,
    build_report,
    read_cloud_csv,
    write_cloud_csv,
    write_profile_csv,
    write_report_json,
)
from swirlaudit.transforms import LATENT_Z, LATENT_ZPRIME, Dataset


def test_cloud_csv_roundtrip_exact(tmp_path):
    pts = sa.sample_uniform_square(1000, seed=1).points
    path = tmp_path / "z.csv"
    write_cloud_csv(path, pts, header="z1,z2")
    back, header = read_cloud_csv(path)
    assert header == "z1,z2"
    assert np.array_equal(back, pts)  # 17 significant digits round-trip float64


EDGE_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e16, -1e16,
               # exact 17-digit ties, which round half to even
               1025 * 2.0 ** -21, (2 ** 52 + 1) / 4, -(2 ** 52 + 1) / 4,
               # 10**k -/+ 1 ulp
               0.09999999999999999, 0.10000000000000002, 999999999999999.9, 1000000000000000.1]


def reference_cloud_csv(points, header):
    """The writer's byte format, one row at a time."""
    rows = "".join(f"{x:.17g},{y:.17g}\n" for x, y in points.tolist())
    return (header + "\n" + rows).encode("utf-8")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.sampled_from([1, 8191, 8192, 8193]),
    values=st.lists(
        st.one_of(st.sampled_from(EDGE_VALUES),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=64,
    ),
)
@example(n=65537, values=EDGE_VALUES)
def test_cloud_csv_bytes_match_per_row_reference(tmp_path, n, values):
    # n straddles the writer's block size; the values repeat to fill n rows
    pts = np.resize(np.array(values, dtype=np.float64), (n, 2))
    path = tmp_path / "cloud.csv"
    write_cloud_csv(path, pts, header="x1,x2")
    assert path.read_bytes() == reference_cloud_csv(pts, "x1,x2")
    back, header = read_cloud_csv(path)
    assert header == "x1,x2"
    assert back.tobytes() == pts.tobytes()  # bit-equal, signed zeros included


def is_17_digit_tie(value):
    """Whether ``value`` lies exactly halfway between two 17-digit decimals."""
    digits = Decimal(value).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def hard_values(rng):
    """Values on which a 17-digit formatter can go wrong, shuffled together."""
    raw = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
    # random doubles of either sign between 2**-14 and 2**53
    exponents = rng.integers(1023 - 14, 1023 + 53, 150_000).astype(np.uint64)
    fixed = ((exponents << np.uint64(52)) | rng.integers(0, 2 ** 52, 150_000, dtype=np.uint64)
             | (rng.integers(0, 2, 150_000, dtype=np.uint64) << np.uint64(63))).view(np.float64)
    # odd m * 2**-k; where k = 17 - X for the decimal exponent X they are ties
    ties = []
    for k in range(1, 64):
        low = max(1, int(10.0 ** (17 - k) * 2.0 ** k))
        high = int(min(10.0 ** (18 - k) * 2.0 ** k, 2.0 ** 53))
        if not low < high:
            low, high = 1, 2 ** 53
        ties.append(np.ldexp(rng.integers(low, high, 2000) | 1, -k))
    powers = np.array([10.0 ** k for k in range(-20, 20)])
    near = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]
    integers = [np.arange(2000.0),
                rng.integers(1, 10 ** 5, 20_000) * 10.0 ** rng.integers(0, 11, 20_000)]
    below_one = 1 - 2.0 ** -np.arange(1, 54)
    bounds = np.array([1e-4, 2.0 ** 53, 5e-324, 2.2250738585072014e-308])
    near += [below_one, bounds, np.nextafter(bounds, 0), np.nextafter(bounds, np.inf)]
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.7976931348623157e308])
    values = np.concatenate([raw, fixed, *ties, *near, *integers, special])
    values = np.concatenate([values, -values[-60_000:]])  # the signs of the hand-picked values
    return rng.permutation(values), np.concatenate(ties)


def test_cloud_csv_bytes_match_per_row_reference_on_hard_values(tmp_path):
    values, ties = hard_values(np.random.default_rng(11))
    assert len(values) >= 500_000
    assert sum(map(is_17_digit_tie, ties.tolist())) >= 30_000
    # fixed-notation and "%.17g"-only values share every block, the first included
    first_block = np.abs(values[:2 * sa.reporting.CSV_BLOCK_ROWS])
    assert ((first_block >= 1e-4) & (first_block < 2.0 ** 53)).any()
    assert ((first_block < 1e-4) | ~np.isfinite(first_block)).any()
    pts = values[:len(values) // 2 * 2].reshape(-1, 2)
    path = tmp_path / "hard.csv"
    write_cloud_csv(path, pts)
    assert path.read_bytes() == reference_cloud_csv(pts, "z1,z2")


def test_cloud_csv_writer_memory_does_not_grow_with_the_cloud(tmp_path):
    # writing a cloud takes a few MB beyond the cloud itself, whatever its size
    peaks = []
    for n in (200_000, 800_000):
        pts = sa.sample_uniform_square(n, seed=2).points
        tracemalloc.start()
        try:
            write_cloud_csv(tmp_path / "z.csv", pts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2 ** 20, peaks


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "z.csv"
    write_cloud_csv(path, np.zeros((3, 2)))
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_cloud_csv(path, np.zeros((3, 3)))
    with pytest.raises(TypeError):
        write_report_json(path, {"not serialisable": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["z.csv"]


def test_cloud_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u,v\n0.0,0.0\n", encoding="utf-8")
    with pytest.raises(MalformedRowError, match="row 1"):
        read_cloud_csv(path)


def test_cloud_csv_rejects_three_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z1,z2\n0.0,0.0,0.0\n", encoding="utf-8")
    with pytest.raises(MalformedRowError, match="row 2"):
        read_cloud_csv(path)


def test_cloud_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z1,z2\n0.0,zero\n", encoding="utf-8")
    with pytest.raises(MalformedRowError, match="row 2"):
        read_cloud_csv(path)


def test_cloud_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("z1,z2\n", encoding="utf-8")
    with pytest.raises(EmptyDatasetError):
        read_cloud_csv(path)


def read_blank_file(tmp_path):
    (tmp_path / "blank.csv").write_text("", encoding="utf-8")
    return read_cloud_csv(tmp_path / "blank.csv")


@pytest.mark.parametrize("refused, error, key", [
    (lambda tmp: write_cloud_csv(tmp / "u.csv", np.zeros((1, 2)), header="u,v"),
     ValueError, "header"),
    (read_blank_file, EmptyDatasetError, "empty"),
    (lambda tmp: swirl_profile(*[sa.sample_uniform_square(10, 0)] * 2, bin_width=0.0),
     ValueError, "bin width"),
    (lambda tmp: swirl_profile(*[sa.sample_uniform_square(10, 0)] * 2, bin_width=np.inf),
     ValueError, "bin width"),
    (lambda tmp: figures.render_scatter_svg(np.zeros((1, 2)), tmp / "s.svg", (1.0, -1.0)),
     ValueError, "axis range"),
    (lambda tmp: figures.render_scatter_svg(np.zeros((1, 2)), tmp / "s.svg", (-np.inf, np.inf)),
     ValueError, "axis range"),
], ids=["write-header", "read-empty-file", "profile-bin-width", "profile-infinite-bin-width",
        "svg-axis-range", "svg-infinite-axis-range"])
def test_refused_inputs_raise_their_error(tmp_path, refused, error, key):
    with pytest.raises(error, match=key):
        refused(tmp_path)


def test_svg_title_is_escaped(tmp_path):
    path = tmp_path / "s.svg"
    figures.render_scatter_svg(np.zeros((1, 2)), path, (-1.0, 1.0), "a < b & c")
    title = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}text")
    assert title.text == "a < b & c"


def test_profile_matches_rotation_law(tmp_path):
    A = sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0)
    p = sa.MpaParams(3.6, 0.9)
    Z = sa.sample_uniform_square(100_000, 42)
    _, Zp = sa.apply_pipeline(A, p, Z)
    profile = swirl_profile(Z, Zp)

    inside = profile[(profile["r_hi"] <= p.c) & (profile["count"] > 0)]
    expected = p.a * (inside["r_mean"] - p.c)
    assert np.abs(inside["mean_angle"] - expected).max() <= 0.02
    outside = profile[(profile["r_lo"] >= p.c) & (profile["count"] > 0)]
    assert np.abs(outside["mean_angle"]).max() <= 1e-6

    path = tmp_path / "profile.csv"
    write_profile_csv(path, profile)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r_lo,r_hi,r_mean,count,mean_angle"
    assert len(lines) == len(profile) + 1


@pytest.mark.parametrize("n", [100, 100_000])  # at n = 100 most bins are empty: nan means
def test_profile_csv_bytes_match_per_row_reference(tmp_path, n):
    Z = sa.sample_uniform_square(n, 7)
    _, Zp = sa.apply_pipeline(sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0), sa.MpaParams(3.6, 0.9), Z)
    profile = swirl_profile(Z, Zp)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, profile)
    expected = "r_lo,r_hi,r_mean,count,mean_angle\n" + "".join(
        f"{r_lo:.17g},{r_hi:.17g},{r_mean:.17g},{count},{mean_angle:.17g}\n"
        for r_lo, r_hi, r_mean, count, mean_angle in profile.tolist()
    )
    assert path.read_bytes() == expected.encode()
    assert (n == 100) == ("nan" in expected)


def test_profile_unwraps_large_rotations():
    # near the origin the rotation exceeds half a turn; the unwrapped profile
    # must report ~ -a*c, not its wrapped remainder
    p = sa.MpaParams(3.6, 0.9)
    Z = sa.sample_uniform_square(200_000, 8)
    _, Zp = sa.apply_pipeline(sa.Mixing2(np.eye(2)), p, Z)
    profile = swirl_profile(Z, Zp)
    deep = profile[(profile["r_hi"] <= 0.02) & (profile["count"] > 0)]
    assert deep.size > 0
    assert np.all(deep["mean_angle"] < -3.0)


def reference_profile(Z, Zp, bin_width=0.01):
    """The swirl profile through numpy's stable argsort, digitize and unwrap."""
    radii = Z.radii()
    (z1, z2), (w1, w2) = Z.points.T, Zp.points.T
    wrapped = np.arctan2(z1 * w2 - z2 * w1, z1 * w1 + z2 * w2)
    order = np.argsort(radii, kind="stable")[::-1]
    unwrapped = np.empty_like(wrapped)
    unwrapped[order] = np.unwrap(wrapped[order])
    n_bins = math.ceil(math.sqrt(2.0) / bin_width)
    edges = np.linspace(0.0, n_bins * bin_width, n_bins + 1)
    idx = np.clip(np.digitize(radii, edges) - 1, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        angle_mean = np.bincount(idx, weights=unwrapped, minlength=n_bins) / counts
        radius_mean = np.bincount(idx, weights=radii, minlength=n_bins) / counts
    table = np.empty(n_bins, dtype=figures._PROFILE_DTYPE)
    table["r_lo"], table["r_hi"], table["r_mean"] = edges[:-1], edges[1:], radius_mean
    table["count"], table["mean_angle"] = counts, angle_mean
    return table


@pytest.mark.parametrize("a", [3.6, -3.6, 20.0, -45.0])
def test_profile_equals_the_numpy_reference(a):
    # 20 and 45 exceed 2*pi/c, so the unwrap corrects more than once
    p = sa.MpaParams(a, 0.9)
    pts = sa.sample_uniform_square(30_000, 5).points
    edges = np.linspace(0.0, 142 * 0.01, 143)[[1, 37, 89, 90, 141, 142]]
    on_edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
    pts = np.concatenate([
        pts, pts[:500], -pts[500:1000],  # tied radii: the fast sort is not kept
        np.column_stack([on_edges, np.zeros_like(on_edges)]),
        np.column_stack([np.zeros_like(on_edges), -on_edges]),
        [[1.5, 0.2], [-2.0, 1.0], [0.0, 3.0]],  # past the last edge
    ])
    Z = Dataset(points=pts, label=LATENT_Z, seed=0)
    _, Zp = sa.apply_pipeline(sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0), p, Z)
    assert not _sort_order(Z.radii())[1]
    assert swirl_profile(Z, Zp).tobytes() == reference_profile(Z, Zp).tobytes()


# consecutive entries from this list step by exactly +-pi or +-2*pi
PHASES = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(PHASES), st.floats(-30.0, 30.0)), max_size=40))
@example(values=[0.0, np.pi, 0.0, -np.pi, -0.0, -2 * np.pi, -np.pi, -0.0, 5.0, -0.0])
def test_lean_unwrap_equals_numpy_unwrap(values):
    p = np.array(values, dtype=np.float64)
    assert np.array_equal(figures._unwrap(p).view(np.uint64), np.unwrap(p).view(np.uint64))


def test_profile_requires_pairing():
    Z = sa.sample_uniform_square(1000, 0)
    Zp = Dataset(points=Z.points[:-1], label=LATENT_ZPRIME, seed=0)
    with pytest.raises(PairingError):
        swirl_profile(Z, Zp)


def test_report_document_schema(tmp_path):
    report = sa.run_audit(
        sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0), sa.MpaParams(3.6, 0.9), 10_000, 3
    )
    document = build_report(report, {"n": 10_000, "seed": 3})
    path = tmp_path / "report.json"
    write_report_json(path, document)
    loaded = json.loads(path.read_text(encoding="utf-8"))

    assert loaded["tool"] == "swirlaudit"
    assert loaded["version"] == sa.__version__
    assert loaded["seed"] == 3
    names = [entry["name"] for entry in loaded["premises"]]
    assert names == [
        "continuity",
        "sigma-algebra",
        "compact-support",
        "independent-support-Z",
        "independent-support-Zprime",
    ]
    for entry in loaded["premises"]:
        assert {"name", "pass", "statistic", "threshold"} <= set(entry)
    assert loaded["relation"]["verdict"] in ("coordinate-wise", "not-coordinate-wise")
    assert len(loaded["relation"]["assignments"]) == 2
    assert isinstance(loaded["counterexample_certified"], bool)
    # the timestamp sits alone on one line so byte comparisons can skip it
    lines = path.read_text(encoding="utf-8").splitlines()
    assert sum("timestamp" in line for line in lines) == 1


def test_report_json_is_strict_with_null_for_nan(tmp_path):
    report = sa.run_audit(
        sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0), sa.MpaParams(3.6, 0.9), 10_000, 3
    )
    document = build_report(report, {"n": 10_000, "seed": 3})
    document["uniformity_pvalue"] = float("nan")
    document["premises"][0]["statistic"] = float("inf")
    path = tmp_path / "report.json"
    write_report_json(path, document)

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    loaded = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    assert loaded["uniformity_pvalue"] is None
    assert loaded["premises"][0]["statistic"] is None
    assert loaded["premises"][1]["statistic"] == document["premises"][1]["statistic"]


def test_report_json_bytes_unchanged_for_finite_reports(tmp_path):
    report = sa.run_audit(
        sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0), sa.MpaParams(3.6, 0.9), 10_000, 3
    )
    document = build_report(report, {"n": 10_000, "seed": 3})
    path = tmp_path / "report.json"
    write_report_json(path, document)
    assert path.read_text(encoding="utf-8") == json.dumps(document, indent=2) + "\n"


def _outcome(read, path):
    """What ``read(path)`` gives: the array's bytes, shape and header, or the
    error's type and text."""
    try:
        points, header = read(path)
    except Exception as exc:  # the error itself is what is compared
        return type(exc).__name__, str(exc)
    return points.tobytes(), points.shape, points.dtype, header


# Lines and fragments that one parser could take and the other not.
JUNK_LINES = ["", "   ", "\t", "1,2,3", "1", "1,", ",1", "1_0,2", '"1","2"', "# 1,2",
              "nan,inf", "-Infinity,+0", "1e500,-0", "0x1p3,1", "1d3,2", " 1 , 2 ",
              "1,2\x0b", " 1,2", "١,2", "1,2\x00", "1;2", "1 2"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=st.lists(st.one_of(st.sampled_from(EDGE_VALUES),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=40),
    inserts=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(JUNK_LINES)), max_size=3),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    header=st.sampled_from(["z1,z2", "x1,x2", " z1 , z2 ", '"z1","z2"', "u,v"]),
    trailing_newline=st.booleans(),
)
def test_cloud_csv_reader_agrees_with_the_csv_path(
    tmp_path, values, inserts, newline, header, trailing_newline
):
    # a written cloud, then mutated: junk lines inserted, other line endings
    pts = np.array(values[:len(values) // 2 * 2], dtype=np.float64).reshape(-1, 2)
    lines = [header] + [f"{x:.17g},{y:.17g}" for x, y in pts.tolist()]
    for at, line in inserts:
        lines.insert(1 + at % len(lines), line)
    path = tmp_path / "cloud.csv"
    path.write_bytes((newline.join(lines) + (newline if trailing_newline else "")).encode())
    assert _outcome(read_cloud_csv, path) == _outcome(_read_rows, path)


def test_cloud_csv_reader_reads_a_written_cloud_without_the_csv_path(tmp_path, monkeypatch):
    pts = sa.sample_uniform_square(5000, seed=3).points
    path = tmp_path / "z.csv"
    write_cloud_csv(path, pts)
    monkeypatch.setattr(sa.reporting, "_read_rows", None)  # any fallback would fail
    back, header = read_cloud_csv(path)
    assert header == "z1,z2" and back.tobytes() == pts.tobytes()


@pytest.mark.parametrize("reader", [read_cloud_csv, _read_rows])
def test_cloud_csv_reader_skips_a_byte_order_mark(tmp_path, reader):
    # a spreadsheet's UTF-8 export may start with one; it is no part of the header
    pts = sa.sample_uniform_square(50, seed=3).points
    path = tmp_path / "z.csv"
    write_cloud_csv(path, pts)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back, header = reader(path)
    assert header == "z1,z2" and back.tobytes() == pts.tobytes()
