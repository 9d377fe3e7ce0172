"""End-to-end tests of the command-line interface."""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swirlaudit
from swirlaudit import audits, cli
from swirlaudit.cli import main
from swirlaudit.errors import SwirlAuditError
from swirlaudit.figures import render_scatter_svg
from swirlaudit.config import load_config
from swirlaudit.reporting import read_cloud_csv, write_cloud_csv

SMALL_CFG = "n = 20000\nseed = 7\n"


def write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_run_certifies_and_writes_bundle(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "counterexample certified       True" in stdout

    for name in ("z.csv", "x.csv", "zprime.csv", "swirl_profile.csv", "report.json"):
        assert (out / name).exists()
    z, header = read_cloud_csv(out / "z.csv")
    assert header == "z1,z2" and len(z) == 20_000
    x, header = read_cloud_csv(out / "x.csv")
    assert header == "x1,x2" and len(x) == 20_000

    report = read_json(out / "report.json")
    assert report["counterexample_certified"] is True
    assert report["parameters"]["n"] == 20_000
    assert report["parameters"]["seed"] == 7
    assert all(entry["pass"] for entry in report["premises"])


def test_run_degenerate_fixture_not_certified(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out), "--degenerate-a"])
    captured = capsys.readouterr()
    assert code == 2
    assert "degenerate-coordinate-wise" in captured.err
    report = read_json(out / "report.json")
    assert report["relation"]["verdict"] == "coordinate-wise"
    assert report["counterexample_certified"] is False


@pytest.mark.parametrize("setting, category", [
    ("l_max = 1", "premise-failure"),  # the swirl's continuity ratio is ~4
    ("alpha = 0.999999", "uniformity-failure"),
])
def test_run_not_certified_names_its_category(tmp_path, capsys, setting, category):
    cfg = write_cfg(tmp_path, f"{SMALL_CFG}{setting}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"not certified: {category}\n"
    assert read_json(out / "report.json")["counterexample_certified"] is False


def test_run_invalid_config_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c = 1.5\n")
    assert main(["run", "--config", cfg]) == 3
    assert "c:" in capsys.readouterr().err


def test_run_refuses_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# caf\xe9\n" + SMALL_CFG.encode())
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: config file {cfg} is not UTF-8 text\n"
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_overflowing_mixing_with_one_error_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG + "A = 1e308, 1e308, -1e308, 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == ("error: invalid configuration:\n  A: mixing matrix too ill-conditioned: "
                   "A @ inv(A) deviates from I by more than 1e-12\n")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: invalid configuration:"]
    assert not (tmp_path / "out").exists()


def test_run_infinite_l_max_exits_3(tmp_path, capsys):
    # an infinite bound would pass every continuity sweep
    cfg = write_cfg(tmp_path, SMALL_CFG + "l_max = inf\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "error: invalid configuration:\n  l_max: must be positive and finite, got inf\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, flags", [
    (SMALL_CFG + "output_dir =\n", []),
    (SMALL_CFG, ["--out", ""]),
])
def test_run_refuses_an_empty_output_dir_and_keeps_the_report_here(tmp_path, monkeypatch, capsys,
                                                                   config, flags):
    # "" would put the clouds in the working directory and replace the report there
    monkeypatch.chdir(tmp_path)
    (tmp_path / "report.json").write_text("{}\n", encoding="utf-8")
    assert main(["run", "--config", write_cfg(tmp_path, config), *flags]) == 3
    assert capsys.readouterr().err == (
        "error: invalid configuration:\n  output_dir: must not be empty\n")
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == "{}\n"
    assert not (tmp_path / "z.csv").exists()


def test_report_parameters_keep_their_key_order(tmp_path):
    settings = ["bins_support", "bins_uniformity", "bins_relation", "functional_threshold",
                "alpha"]
    out, ext = tmp_path / "out", tmp_path / "ext"
    assert main(["run", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
    assert list(read_json(out / "report.json")["parameters"]) == [
        "n", "seed", "a", "c", "mixing", *settings, "l_max", "output_dir", "degenerate_a"
    ]
    assert main(["audit-external", str(out / "z.csv"), str(out / "zprime.csv"),
                 "--out", str(ext)]) == 0
    assert list(read_json(ext / "report.json")["parameters"]) == [
        "z_csv", "zprime_csv", "n", *settings
    ]


def test_run_unwritable_output_dir(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", cfg, "--out", "/dev/null/out"]) == 4
    assert "I/O failure" in capsys.readouterr().err


def certify_then_fail(tmp_path, break_run, render=False):
    cfg = write_cfg(tmp_path, "n = 10000\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "report.json")["counterexample_certified"] is True
    break_run(out)
    return main(["run", "--config", cfg, "--out", str(out)] + ["--render"] * render), out


def test_failed_audit_leaves_no_certified_report(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise SwirlAuditError("injected failure")

    code, out = certify_then_fail(
        tmp_path, lambda out: monkeypatch.setattr(audits, "check_uniformity", broken)
    )
    assert code == 5
    assert "injected failure" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    # the cloud writers were joined although the audit failed
    assert multiprocessing.active_children() == []
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_failed_pipeline_joins_the_started_writer_and_leaves_no_report(tmp_path, monkeypatch,
                                                                       capsys):
    def broken(*args, **kwargs):
        raise SwirlAuditError("injected failure")

    code, out = certify_then_fail(
        tmp_path, lambda out: monkeypatch.setattr(cli, "apply_pipeline", broken))
    assert code == 5
    assert "injected failure" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    # Z's writer had started before the pipeline failed, and was joined
    assert multiprocessing.active_children() == []
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the writers are forked only where fork exists")
def test_each_writer_starts_as_its_cloud_exists_with_no_other_thread(tmp_path, monkeypatch):
    events = []
    start, pipeline = multiprocessing.process.BaseProcess.start, cli.apply_pipeline

    def recording_start(self):
        events.append((Path(self.name).name, threading.active_count()))
        return start(self)

    def recording_pipeline(*args, **kwargs):
        events.append(("apply_pipeline", threading.active_count()))
        return pipeline(*args, **kwargs)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
    monkeypatch.setattr(cli, "apply_pipeline", recording_pipeline)
    cfg = write_cfg(tmp_path, "n = 10000\nseed = 5\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert events == [("z.csv", 1), ("apply_pipeline", 1), ("x.csv", 1), ("zprime.csv", 1)]


def test_failed_write_leaves_no_certified_report(tmp_path, capsys):
    def block_zprime(out):
        (out / "zprime.csv").unlink()
        (out / "zprime.csv").mkdir()

    code, out = certify_then_fail(tmp_path, block_zprime)
    assert code == 4
    err = capsys.readouterr().err
    assert "error: I/O failure:" in err and "zprime.csv" in err
    assert not (out / "report.json").exists()
    assert multiprocessing.active_children() == []
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_failed_render_exits_4_and_names_its_file(tmp_path, capsys):
    def block_svg(out):
        (out / "x.svg").mkdir()

    code, out = certify_then_fail(tmp_path, block_svg, render=True)
    assert code == 4
    err = capsys.readouterr().err
    assert "error: I/O failure:" in err and "x.svg" in err
    assert not (out / "report.json").exists()
    assert multiprocessing.active_children() == []
    assert (out / "z.svg").is_file() and (out / "zprime.svg").is_file()


@pytest.mark.parametrize("start_methods", [None, ["spawn"]], ids=["native", "no-fork"])
def test_run_clouds_equal_the_in_process_writer(tmp_path, monkeypatch, start_methods):
    # None: this platform's start methods (forked writers where fork exists);
    # ["spawn"]: a platform without fork, where run writes the clouds itself
    if start_methods is not None:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: start_methods)
    parent_writes = []
    original = cli.write_cloud_csv

    def counting(*args, **kwargs):
        parent_writes.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "write_cloud_csv", counting)
    cfg_path = write_cfg(tmp_path, "n = 10000\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--render"]) == 0
    forked = "fork" in multiprocessing.get_all_start_methods()
    assert len(parent_writes) == (0 if forked else 3)

    cfg = load_config(cfg_path)
    Z, X, Zp = audits.generate(cfg.mixing2(), cfg.mpa_params(), cfg.n, cfg.seed)
    ref = tmp_path / "ref"
    ref.mkdir()
    for name, points, header in (("z.csv", Z.points, "z1,z2"), ("x.csv", X.points, "x1,x2"),
                                 ("zprime.csv", Zp.points, "z1,z2")):
        write_cloud_csv(ref / name, points, header=header)
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    # the scatters as the parent process rendered them, one after another
    span = float(max(1.0, np.abs(X.points).max())) * 1.05
    render_scatter_svg(Z.points, ref / "z.svg", title="sources Z")
    render_scatter_svg(X.points, ref / "x.svg", axis_range=(-span, span), title="observations X")
    render_scatter_svg(Zp.points, ref / "zprime.svg", title="alternate sources Z'")
    for name in ("z.svg", "x.svg", "zprime.svg"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_failed_external_audit_leaves_no_report(tmp_path):
    cfg = write_cfg(tmp_path, "n = 10000\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    short = tmp_path / "short.csv"
    short.write_text("z1,z2\n0.0,0.0\n", encoding="utf-8")
    assert main(["audit-external", str(out / "z.csv"), str(short), "--out", str(out)]) == 5
    assert not (out / "report.json").exists()


def test_run_undersized_n_exits_3_and_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "n = 100\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    for key in ("bins_support", "bins_uniformity", "bins_relation"):
        assert key in err
    assert not out.exists()


def test_run_undersized_n_lists_one_line_per_setting(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "n = 100\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "error: invalid configuration:\n"
        "  n: must be >= 2500 for bins_support = 10, got 100\n"
        "  n: must be >= 500 for bins_uniformity = 10, got 100\n"
        "  n: must be >= 2500 for bins_relation = 50, got 100\n"
    )


def test_undersized_run_removes_an_earlier_report(tmp_path, capsys):
    # the refused run would otherwise leave the certified n = 20000 verdict beside it
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
    assert read_json(out / "report.json")["counterexample_certified"] is True
    capsys.readouterr()
    tiny = write_cfg(tmp_path, "n = 100\nseed = 7\n", name="tiny.cfg")
    assert main(["run", "--config", tiny, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: invalid configuration:\n"
        "  n: must be >= 2500 for bins_support = 10, got 100\n"
        "  n: must be >= 500 for bins_uniformity = 10, got 100\n"
        "  n: must be >= 2500 for bins_relation = 50, got 100\n"
    )
    assert not (out / "report.json").exists()


def test_each_command_reports_what_it_ran(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", cfg, "--out", "out", "--seed", "11"]) == 0
    ran = read_json(tmp_path / "out" / "report.json")
    assert ran["parameters"] == replace(load_config(cfg), output_dir="out", seed=11).to_dict()
    assert ran["seed"] == 11
    assert main(["audit-external", "out/z.csv", "out/zprime.csv", "--out", "ext"]) == 0
    external = read_json(tmp_path / "ext" / "report.json")
    assert external["parameters"] == {
        "z_csv": "out/z.csv", "zprime_csv": "out/zprime.csv", "n": 20_000,
        "bins_support": 10, "bins_uniformity": 10, "bins_relation": 50,
        "functional_threshold": 0.01, "alpha": 0.001,
    }
    assert external["seed"] is None


def test_run_samples_once(tmp_path, monkeypatch):
    calls = []
    original = audits.sample_uniform_square

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module that holds the sampler by name, wherever run might call it
    for module in [m for k, m in sys.modules.items() if k.startswith("swirlaudit")]:
        if getattr(module, "sample_uniform_square", None) is original:
            monkeypatch.setattr(module, "sample_uniform_square", counting)
    cfg = write_cfg(tmp_path, "n = 10000\nseed = 5\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("module", ["scipy.stats", "multiprocessing", "concurrent.futures"])
def test_cli_import_does_not_load_scipy_stats(module):
    # nor any scipy module at all, nor does it start a thread: the one worker lives
    # only inside share_with_worker, which apply_pipeline and audit_pair call
    probe = (f"import sys, threading, swirlaudit.cli; "
             f"print({module!r} in sys.modules, "
             f"any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules), "
             f"threading.active_count())")
    env = {**os.environ, "PYTHONPATH": str(Path(swirlaudit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["False", "False", "1"]


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["figures", "--config", cfg, "--out", str(out_a), "--seed", "123"]) == 0
    assert main(["figures", "--config", cfg, "--out", str(out_b)]) == 0
    za, _ = read_cloud_csv(out_a / "z.csv")
    zb, _ = read_cloud_csv(out_b / "z.csv")
    assert not np.array_equal(za, zb)


def test_figures_removes_a_report_its_clouds_do_not_match(tmp_path):
    cfg = write_cfg(tmp_path, "n = 10000\nseed = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["figures", "--config", cfg, "--out", str(out), "--seed", "2"]) == 0
    assert not (out / "report.json").exists()


def test_audit_external_takes_no_seed(tmp_path, capsys):
    # the clouds are read, not sampled, so a seed would be accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main(["audit-external", "z.csv", "zprime.csv", "--seed", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_figures_profile_examples(tmp_path):
    # defaults: the bin holding r=0.5 sits near a*(r-c) = -1.44; bins beyond
    # the cutoff are exactly zero
    out = tmp_path / "fig"
    assert main(["figures", "--out", str(out)]) == 0
    rows = (out / "swirl_profile.csv").read_text(encoding="utf-8").splitlines()[1:]
    table = [row.split(",") for row in rows]
    by_bin = {(float(r[0]), float(r[1])): (float(r[2]), int(r[3]), float(r[4])) for r in table}
    for (lo, hi), (r_mean, count, angle) in by_bin.items():
        if lo <= 0.5 < hi:
            assert count > 0 and abs(angle - (-1.44)) <= 0.02
        if lo <= 0.95 < hi:
            assert count > 0 and abs(angle) <= 1e-6


def test_figures_render_emits_svg(tmp_path):
    cfg = write_cfg(tmp_path, "n = 500\nseed = 3\n")
    out = tmp_path / "fig"
    assert main(["figures", "--config", cfg, "--out", str(out), "--render"]) == 0
    for name in ("z.svg", "x.svg", "zprime.svg"):
        text = (out / name).read_text(encoding="utf-8")
        assert text.startswith("<svg") and text.count("<circle") == 500


def test_audit_external_self_pair_is_coordinate_wise(tmp_path):
    cfg = write_cfg(tmp_path)
    gen = tmp_path / "gen"
    assert main(["figures", "--config", cfg, "--out", str(gen)]) == 0
    out = tmp_path / "ext"
    code = main(["audit-external", str(gen / "z.csv"), str(gen / "z.csv"),
                 "--config", cfg, "--out", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["relation"]["verdict"] == "coordinate-wise"
    skipped = {e["name"]: e for e in report["premises"] if e["pass"] is None}
    assert set(skipped) == {"continuity", "sigma-algebra"}
    assert all("not-applicable" in e["note"] for e in skipped.values())


def test_audit_external_pipeline_pair_not_coordinate_wise(tmp_path):
    cfg = write_cfg(tmp_path)
    gen = tmp_path / "gen"
    assert main(["run", "--config", cfg, "--out", str(gen)]) == 0
    out = tmp_path / "ext"
    code = main(["audit-external", str(gen / "z.csv"), str(gen / "zprime.csv"),
                 "--config", cfg, "--out", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["relation"]["verdict"] == "not-coordinate-wise"
    assert report["uniformity_pvalue"] > 0.001


def test_audit_external_agrees_with_run(tmp_path):
    # the same pair audited by both commands: every check both make agrees
    cfg = write_cfg(tmp_path)
    gen = tmp_path / "gen"
    assert main(["run", "--config", cfg, "--out", str(gen)]) == 0
    out = tmp_path / "ext"
    assert main(["audit-external", str(gen / "z.csv"), str(gen / "zprime.csv"),
                 "--config", cfg, "--out", str(out)]) == 0
    ran, external = read_json(gen / "report.json"), read_json(out / "report.json")
    premises = {e["name"]: e for e in ran["premises"]}
    for entry in external["premises"]:
        if entry["name"] in ("continuity", "sigma-algebra"):
            assert entry["pass"] is None and entry["statistic"] is None
            assert entry["note"] == "not-applicable: no analytic maps supplied"
        else:
            assert entry == premises[entry["name"]]
    assert len(external["premises"]) == len(premises)
    assert external["uniformity_pvalue"] == ran["uniformity_pvalue"]
    assert external["relation"] == ran["relation"]
    assert ran["counterexample_certified"] is True
    assert external["counterexample_certified"] is False


def test_audit_external_undersized_clouds_name_the_check(tmp_path, capsys):
    Z = swirlaudit.sample_uniform_square(100, seed=3)
    write_cloud_csv(tmp_path / "z.csv", Z.points, header="z1,z2")
    write_cloud_csv(tmp_path / "zprime.csv", Z.points[::-1], header="z1,z2")
    out = tmp_path / "out"
    code = main(["audit-external", str(tmp_path / "z.csv"), str(tmp_path / "zprime.csv"),
                 "--out", str(out)])
    assert code == 5
    assert re.search(r"\[independent-support\].*n >= 2500", capsys.readouterr().err)
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("column, values", [
    (0, (1.7e308, -1.7e308)),  # the span overflows
    (1, (0.0, 5e-324)),  # too narrow for 10 bins
])
def test_audit_external_refuses_a_cloud_the_support_grid_cannot_bin(tmp_path, column, values):
    points = swirlaudit.sample_uniform_square(20_000, seed=3).points.copy()
    if column == 0:
        points[:2] = [(values[0], 0.0), (values[1], 0.0)]
    else:
        points[:, 1] = np.resize(values, len(points))
    write_cloud_csv(tmp_path / "z.csv", points, header="z1,z2")
    out = tmp_path / "out"
    # in a child under -X dev, as CI runs it: a warning that any check raises, on either
    # thread, is printed there, where a filter that made warnings errors in this process
    # would have made it the error of a check queued after the failing grid, and unseen
    env = {**os.environ, "PYTHONPATH": str(Path(swirlaudit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-X", "dev", "-m", "swirlaudit", "audit-external",
                           str(tmp_path / "z.csv"), str(tmp_path / "z.csv"), "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 5, done.stderr
    assert done.stderr.startswith("error: range [") and done.stderr.count("\n") == 1
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("observed", ["z", "zprime"])
def test_audit_external_rejects_an_observation_cloud(tmp_path, capsys, observed):
    # an x1,x2 file in either latent slot is refused, not audited as a latent cloud
    Z = swirlaudit.sample_uniform_square(3000, seed=4)
    paths = {name: tmp_path / f"{name}.csv" for name in ("z", "zprime")}
    for name, path in paths.items():
        write_cloud_csv(path, Z.points, header="x1,x2" if name == observed else "z1,z2")
    out = tmp_path / "out"
    assert main(["audit-external", str(paths["z"]), str(paths["zprime"]),
                 "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert f"{paths[observed]}: a latent cloud needs header 'z1,z2', got 'x1,x2'" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("byte", [b"\xff", b"\xe9"])
def test_audit_external_refuses_a_cloud_that_is_not_utf8(tmp_path, capsys, byte):
    # 0xff in the header fails the header read; 0xe9 in a row past the first 8 KB is
    # decoded only after the header, fails np.loadtxt and then the csv path's rows
    good = tmp_path / "good.csv"
    write_cloud_csv(good, swirlaudit.sample_uniform_square(3000, seed=4).points)
    data = good.read_bytes()
    cut = data.index(b"\n", 9000) + 1
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"z1,z" + byte + data[4:] if byte == b"\xff"
                    else data[:cut] + b"0.5" + byte + b",0.5\n" + data[cut:])
    out = tmp_path / "out"
    assert main(["audit-external", str(bad), str(good), "--out", str(out)]) == 5
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"
    assert not (out / "report.json").exists()


def test_audit_external_malformed_rows(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("z1,z2\n0.0,0.0,0.0\n", encoding="utf-8")
    good = tmp_path / "good.csv"
    good.write_text("z1,z2\n0.0,0.0\n", encoding="utf-8")
    assert main(["audit-external", str(bad), str(good), "--out", str(tmp_path)]) == 5
    assert "row 2" in capsys.readouterr().err


def test_audit_external_row_count_mismatch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("z1,z2\n0.0,0.0\n0.1,0.1\n", encoding="utf-8")
    b = tmp_path / "b.csv"
    b.write_text("z1,z2\n0.0,0.0\n", encoding="utf-8")
    assert main(["audit-external", str(a), str(b), "--out", str(tmp_path)]) == 5
    assert "row-count mismatch" in capsys.readouterr().err


def test_reports_are_reproducible_modulo_timestamp(tmp_path):
    cfg = write_cfg(tmp_path, "n = 10000\nseed = 5\noutput_dir = " + str(tmp_path / "o") + "\n")
    assert main(["run", "--config", cfg]) in (0, 2)
    first = (tmp_path / "o" / "report.json").read_text(encoding="utf-8")
    assert main(["run", "--config", cfg]) in (0, 2)
    second = (tmp_path / "o" / "report.json").read_text(encoding="utf-8")
    keep = lambda text: [ln for ln in text.splitlines() if '"timestamp"' not in ln]
    assert keep(first) == keep(second)
