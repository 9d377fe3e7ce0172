"""Self-test of the benchmark's own arithmetic and shims.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (65, 75.0),
    (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 50.0) == 50
    assert run.nearest_rank(values, 90.0) == 90
    assert run.nearest_rank([3.0], 99.9) == 3.0


def test_covered_is_the_union_clipped_to_the_parent():
    assert spans.covered(0.0, 10.0, []) == 0.0
    assert spans.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert spans.covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0)]) == 2.0
    assert spans.covered(0.0, 10.0, [(6.0, 7.0), (1.0, 2.0)]) == 2.0


def test_self_time_subtracts_children_not_grandchildren():
    tree = [
        [0, "op", 0.0, 10.0, None, 0],
        [1, "cli.main", 1.0, 9.0, 0, 0],
        [2, "audits.run_audit", 2.0, 6.0, 1, 0],
        [3, "audits.check_uniformity", 3.0, 4.0, 2, 0],
        [4, "reporting.write_cloud_csv", 6.5, 8.0, 1, 0],
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 2.0, 1: 2.5, 2: 3.0, 3: 1.0, 4: 1.5})
    assert sum(own.values()) == pytest.approx(10.0)
    assert spans.op_accounting(tree, {0: 10.0}) == pytest.approx({0: 0.8})


def test_layer_metrics_are_per_op_and_rates_use_self_time():
    tree = []
    for op in (0, 1):
        base = len(tree)
        tree += [
            [base, "op", 0.0, 4.0, None, op],
            [base + 1, "reporting.write_cloud_csv", 0.0, 2.0, base, op],
            [base + 2, "transforms.sample_uniform_square", 2.0, 3.0, base, op],
        ]
    tree.append([len(tree), "transforms.sample_uniform_square", 0.0, 9.0, None, None])
    counts = {
        "0": {"reporting.write_cloud_csv.bytes": 3_000_000,
              "transforms.sample_uniform_square.calls": 2, "audits.bounding_box.calls": 5},
        "1": {"reporting.write_cloud_csv.bytes": 1_000_000,
              "transforms.sample_uniform_square.calls": 2, "audits.bounding_box.calls": 5},
        "None": {"transforms.sample_uniform_square.calls": 7},
    }
    m = spans.layer_metrics(tree, counts, n_ops=2)
    assert m["reporting.write_cloud_csv_s"] == pytest.approx(2.0)
    assert m["transforms.sample_s"] == pytest.approx(1.0)  # the op-less span is left out
    assert m["reporting.write_cloud_csv_mb_per_s"] == pytest.approx(1.0)
    assert m["reporting.read_cloud_csv_mb_per_s"] == 0.0
    assert m["transforms.sample_calls"] == 2
    assert m["audits.bounding_box_calls"] == 5
    assert m["reporting.bytes_written"] == 2_000_000
    assert set(m) == set(spans.LAYER_TIMES) | set(spans.LAYER_RATES) | set(spans.LAYER_COUNTS)


def test_merge_renumbers_and_attaches_orphans():
    merged = [[0, "op", 0.0, 5.0, None, 3]]
    spans.merge(merged, [[0, "cli.import", 1.0, 2.0, None, 3],
                         [1, "cli.main", 2.0, 4.0, None, 3],
                         [2, "config.load_config", 2.5, 3.0, 1, 3]], parent=0)
    assert [s[0] for s in merged] == [0, 1, 2, 3]
    assert [s[4] for s in merged] == [None, 0, 0, 2]


def _op(wall, error=None, rss=100.0):
    return {"wall_s": wall, "cpu_s": wall, "ref_s": 0.5, "rss_mb": rss, "error": error,
            "certified": True}


def test_failures_are_counted_against_attempts():
    ops = [_op(1.0), _op(2.0, error="exit code 5"), _op(3.0), _op(4.0, rss=120.0)]
    assert run.fail_counts(ops) == (4, 1)
    metrics, extra = run.end_to_end(ops, [0.5, 0.7, 0.6], n=10)
    assert extra["fail_ratio"] == 0.25
    assert extra["op_s.tail"] is None
    assert metrics["setup_s"] == 0.6
    assert metrics["op_rel.p50"] == extra["cpu_rel.p50"] == 5.0
    assert extra["op_s.min"] == 1.0
    assert extra["op_s.p50"] == 2.5
    assert extra["points_per_s"] == pytest.approx(10 * 3 / 10.0)
    assert metrics["peak_rss_mb"] == 120.0
    assert set(metrics) == set(run.END_TO_END_UNITS)


def test_scipy_import_time_sums_scipy_subtrees_only():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        10 |         10 |         scipy._lib",
        "import time:        20 |         30 |       scipy",
        "import time:       400 |        400 |       scipy.stats._stats_py",
        "import time:         5 |        585 |     swirlaudit.audits",
        "import time:         1 |        586 | swirlaudit.cli",
    ])
    assert run.scipy_import_s(log) == pytest.approx(430e-6)


def test_shims_cover_module_global_references_and_restore_them():
    import swirlaudit.audits as audits
    import swirlaudit.cli as cli
    import swirlaudit.reporting as reporting

    originals = (cli.write_cloud_csv, reporting.write_cloud_csv, audits.bounding_box)
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert cli.write_cloud_csv is reporting.write_cloud_csv is not originals[0]
        audits.check_compact_support(_dataset(oracle.sources(100, 1)),
                                     np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    finally:
        tracer.uninstall()
    assert (cli.write_cloud_csv, reporting.write_cloud_csv, audits.bounding_box) == originals
    assert tracer.counts[0]["audits.bounding_box.calls"] == 1
    assert [s[1] for s in tracer.spans] == ["audits.check_compact_support"]


def _dataset(points):
    from swirlaudit.transforms import LATENT_ZPRIME, Dataset

    return Dataset(points=points, label=LATENT_ZPRIME, seed=0)


def test_uniformity_pvalue_matches_the_package_and_gates_certification():
    from swirlaudit.audits import check_uniformity

    zp = oracle.swirl(oracle.sources(10_000, 5))
    p = oracle.uniformity_pvalue(zp)
    assert p == pytest.approx(check_uniformity(_dataset(zp), oracle.UNIFORMITY_BINS), rel=1e-9)
    oracle.check_verdict("not-coordinate-wise", p, p > oracle.ALPHA, p)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_verdict("not-coordinate-wise", p, p <= oracle.ALPHA, p)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_verdict("coordinate-wise", p, p > oracle.ALPHA, p)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_verdict("not-coordinate-wise", p * 1.01, p > oracle.ALPHA, p)


def test_swirl_keeps_radii_and_report_hash_ignores_timestamp(tmp_path):
    z = oracle.sources(1000, 2)
    zp = oracle.swirl(z)
    assert np.abs(np.hypot(*zp.T) - np.hypot(*z.T)).max() < 1e-15
    digests = []
    for stamp in ("2026-01-01T00:00:00+00:00", "2027-06-30T12:00:00+00:00"):
        (tmp_path / "report.json").write_text(f'{{\n  "timestamp": "{stamp}",\n  "seed": 1\n}}\n')
        digests.append(oracle.output_hashes(tmp_path)["report.json"])
    assert digests[0] == digests[1]
