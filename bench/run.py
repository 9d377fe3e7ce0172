"""swirlaudit benchmark: end-to-end metrics per workload, or a traced run
that gives per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload run-1e6 --seed 1 --seconds 40 --trace 0

Every workload is a closed loop: one caller, one working process at a time,
the next op starting when the previous one has ended and its outputs have
been checked.  The package is run from ``src/`` of this checkout; it receives
only generated config files and CSVs.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Each run also writes its environment, per-op records and
output hashes, and with ``--trace 1`` its spans, under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import oracle
import spans
from reference import kernel_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5
REF_SAMPLES = 5  # reference-kernel runs just before and just after each CLI op
LAYER_PROBES = 3
OP_LIMIT_S = 150.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    kind: str  # "run", "sweep", "external" or "figures"
    n: int
    why: str


WORKLOADS = {
    "run-1e6": Workload(
        "run", 1_000_000,
        "python -m swirlaudit run at n = 1e6: the headline user action; CSV writing, "
        "the audit and import dominate and each 16 MB cloud exceeds L2"),
    "sweep-1e5": Workload(
        "sweep", 100_000,
        "in-process run_audit over consecutive seeds at n = 1e5: audit compute alone, "
        "no import or file I/O, 1.6 MB clouds fit in L2"),
    "external-1e5": Workload(
        "external", 100_000,
        "audit-external on two generated CSVs at n = 1e5: import and the CSV reader "
        "dominate and no clouds are written"),
    "figures-render-1e5": Workload(
        "figures", 100_000,
        "figures --render at n = 1e5: the only path that renders SVG, and the only "
        "CLI path with no audit"),
}

END_TO_END_UNITS = {"setup_s": "s", "op_rel.p50": "ratio", "peak_rss_mb": "MB"}
EXTRA_UNITS = {"cpu_rel.p50": "ratio", "op_s.p50": "s", "op_s.min": "s", "cpu_s.p50": "s",
               "points_per_s": "1/s", "ref_s.p50": "s"}


def tail_percentile(n_samples: int):
    """Highest ladder percentile with at least ``TAIL_BEYOND`` samples
    beyond it, or ``None`` when there are too few samples."""
    for p in TAIL_LADDER:
        if n_samples * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9:
            return p
    return None


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def fail_counts(ops) -> tuple[int, int]:
    """``(attempted, failed)``; an op fails when it carries an error."""
    return len(ops), sum(1 for op in ops if op["error"] is not None)


def end_to_end(ops, setup_walls, n: int) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the figures the table prints and
    the result file keeps without gating them.

    Op time is gated relative to the reference kernel timed around each op
    (``reference.py``): per op, its seconds divided by the kernel's, then
    the median over ops.  The raw seconds are kept beside.
    """
    walls = [op["wall_s"] for op in ops]
    cpus = [op["cpu_s"] for op in ops]
    attempted, failed = fail_counts(ops)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "op_rel.p50": statistics.median(op["wall_s"] / op["ref_s"] for op in ops),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
    }
    p = tail_percentile(len(walls))
    extra = {
        "cpu_rel.p50": statistics.median(op["cpu_s"] / op["ref_s"] for op in ops),
        "op_s.p50": statistics.median(walls),
        "op_s.min": min(walls),
        "cpu_s.p50": statistics.median(cpus),
        "points_per_s": n * (attempted - failed) / sum(walls),
        "ref_s.p50": statistics.median(op["ref_s"] for op in ops),
        "op_s.tail": None if p is None else
        {"percentile": p, "value": nearest_rank(walls, p), "samples": len(walls)},
        "fail_ratio": failed / attempted,
    }
    return metrics, extra


def scipy_import_s(importtime: str) -> float:
    """Seconds that scipy modules add to an import, from ``-X importtime``.

    scipy loads ``scipy.stats`` lazily through ``importlib``, so the log has
    no ``scipy.stats`` line of its own; its submodules and dependencies show
    up as scipy lines under the importing package instead.  This sums the
    cumulative time of every scipy line whose parent is not a scipy line.
    The package imports scipy for ``scipy.stats`` alone.
    """
    rows = []
    for line in importtime.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    total_us = 0
    for i, (depth, name, cumulative_us) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        # Children are printed before their parent: the parent is the next
        # line that is less deeply nested.
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            total_us += cumulative_us
    return total_us / 1e6


def _size_bytes(text: str) -> int:
    m = re.fullmatch(r"(\d+)([KMG]?)", text.strip())
    return int(m.group(1)) * {"": 1, "K": 2**10, "M": 2**20, "G": 2**30}[m.group(2)]


def environment(workload: Workload) -> dict:
    cache = {}
    for index, level in (("index2", "l2_bytes"), ("index3", "l3_bytes")):
        try:
            text = Path(f"/sys/devices/system/cpu/cpu0/cache/{index}/size").read_text()
            cache[level] = _size_bytes(text)
        except (OSError, AttributeError):
            cache[level] = None
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    cloud = workload.n * 2 * 8
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **cache,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "cloud_bytes": cloud,
        "cloud_over_l2": cloud / cache["l2_bytes"] if cache["l2_bytes"] else None,
    }


@dataclass
class Spawned:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    start: float
    end: float


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.base_seed = seed * 1000
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.spans: list = []
        self.counts: dict = {}
        self.zprime_input = None  # the alternates audit-external reads

    # -- processes -------------------------------------------------------

    def spawn(self, argv, log: Path, stderr_log: Path | None = None,
              cwd: Path | None = None) -> Spawned:
        """Run one child to its exit; wall from spawn to exit, CPU and peak
        RSS from its rusage."""
        with open(log, "wb") as out, open(stderr_log or os.devnull, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=cwd or self.work, stdout=out,
                                    stderr=err if stderr_log else subprocess.STDOUT)
            killer = threading.Timer(OP_LIMIT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            end = time.perf_counter()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Spawned(end - start, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, code, start, end)

    def python(self, *args) -> list[str]:
        return [sys.executable, *args]

    def worker(self, spec: dict) -> list[str]:
        return self.python(str(BENCH / "worker.py"), json.dumps(spec))

    def probe(self, argv, count: int) -> list[float]:
        """Spawn-to-exit seconds of ``count`` runs of ``argv``, after one
        discarded run that lets file caches fill."""
        log = self.work / "probe.log"
        walls = []
        for i in range(count + 1):
            done = self.spawn(argv, log)
            if done.code != 0:
                raise RuntimeError(f"probe {argv} exited {done.code}: {log.read_text()[-2000:]}")
            if i:
                walls.append(done.wall_s)
        return walls

    def config(self, path: Path, seed: int, out: str) -> Path:
        path.write_text(oracle.config_text(self.workload.n, seed, out), encoding="utf-8")
        return path

    # -- set-up ----------------------------------------------------------

    def setup_walls(self) -> list[float]:
        if self.workload.kind == "sweep":
            cfg = self.config(self.work / "sweep.cfg", self.base_seed, "unused")
            spec = {"mode": "setup", "config": str(cfg), "warmup_seed": self.base_seed + 999}
            return self.probe(self.worker(spec), SETUP_PROBES)
        return self.probe(self.python("-c", "import swirlaudit.cli"), SETUP_PROBES)

    def make_inputs(self) -> None:
        """The two clouds audit-external reads: written here, with numpy."""
        inputs = self.work / "inputs"
        inputs.mkdir()
        z = oracle.sources(self.workload.n, self.base_seed)
        self.zprime_input = oracle.swirl(z)
        oracle.write_cloud(inputs / "z.csv", z, "z1,z2")
        oracle.write_cloud(inputs / "zprime.csv", self.zprime_input, "z1,z2")

    # -- one CLI op ------------------------------------------------------

    def cli_args(self) -> list[str]:
        """Arguments of one op, relative to its directory, so that the paths
        the report records are the same in every run."""
        kind = self.workload.kind
        if kind == "run":
            return ["run", "--config", "run.cfg"]
        if kind == "figures":
            return ["figures", "--render", "--config", "run.cfg"]
        return ["audit-external", "--config", "run.cfg", "../inputs/z.csv", "../inputs/zprime.csv"]

    def check(self, out: Path, seed: int, code: int):
        """Check one CLI op's outputs; returns whether it certified (``run``)."""
        n, kind = self.workload.n, self.workload.kind
        if kind == "run":
            certified = oracle.check_run(out, n, seed)
            if code != (0 if certified else 2):
                raise oracle.CheckFailed(f"exit code {code} with certified = {certified}")
            return certified
        if code != 0:
            raise oracle.CheckFailed(f"exit code {code}")
        if kind == "figures":
            oracle.check_figures(out, n, seed)
        else:
            oracle.check_external(out, self.zprime_input)
        return None

    def cli_op(self, i: int, traced: bool) -> dict:
        seed = self.base_seed + i
        op_dir = self.work / f"op{i}"
        op_dir.mkdir()
        out = op_dir / "out"
        self.config(op_dir / "run.cfg", seed, out.name)
        args = self.cli_args()
        trace_file = op_dir / "trace.json"
        if traced:
            argv = self.worker({"mode": "cli", "op": i, "argv": args,
                                "result": str(trace_file)})
        else:
            argv = self.python("-m", "swirlaudit", *args)
        refs = [kernel_s() for _ in range(REF_SAMPLES)]
        done = self.spawn(argv, op_dir / "stdout.log", cwd=op_dir)
        refs += [kernel_s() for _ in range(REF_SAMPLES)]

        error = certified = None
        try:
            certified = self.check(out, seed, done.code)
        except Exception as exc:  # any failed check is a failed op
            log = (op_dir / "stdout.log").read_text(errors="replace")[-500:]
            error = f"{type(exc).__name__}: {exc}; output: {log}"
        hashes = oracle.output_hashes(out) if out.is_dir() else {}
        if traced and trace_file.is_file():
            dump = json.loads(trace_file.read_text())
            root = len(self.spans)
            self.spans += [[root, spans.ROOT, done.start, done.end, None, i],
                           [root + 1, "cli.start", done.start, dump["boot"], root, i],
                           [root + 2, "cli.exit", dump["done"], done.end, root, i]]
            spans.merge(self.spans, dump["spans"], parent=root)
            self.counts.update(dump["counts"])
        shutil.rmtree(op_dir)
        return {"op": i, "seed": seed, "traced": traced, "wall_s": done.wall_s,
                "cpu_s": done.cpu_s, "ref_s": statistics.median(refs), "rss_mb": done.rss_mb,
                "certified": certified, "error": error, "hashes": hashes}

    def cli_loop(self) -> list[dict]:
        ops = []
        deadline = time.perf_counter() + self.seconds
        min_ops = 2 if self.trace else 1
        while len(ops) < min_ops or time.perf_counter() < deadline:
            ops.append(self.cli_op(len(ops), traced=self.trace and len(ops) % 2 == 1))
        return ops

    # -- the sweep -------------------------------------------------------

    def sweep_loop(self) -> list[dict]:
        cfg = self.config(self.work / "sweep.cfg", self.base_seed, "unused")
        result = self.work / "sweep.json"
        spec = {"mode": "sweep", "config": str(cfg), "base_seed": self.base_seed,
                "warmup_seed": self.base_seed + 999, "seconds": self.seconds,
                "trace": self.trace, "result": str(result)}
        done = self.spawn(self.worker(spec), self.work / "sweep.log")
        if done.code != 0 or not result.is_file():
            tail = (self.work / "sweep.log").read_text(errors="replace")[-2000:]
            return [{"op": 0, "seed": self.base_seed, "traced": False, "wall_s": done.wall_s,
                     "cpu_s": done.cpu_s, "ref_s": kernel_s(), "rss_mb": done.rss_mb,
                     "certified": None,
                     "error": f"sweep worker exit code {done.code}: {tail}"}]
        data = json.loads(result.read_text())
        self.spans = data["trace"]["spans"]
        self.counts = data["trace"]["counts"]
        for op in data["ops"]:
            op["rss_mb"] = done.rss_mb  # one process did all the work
        return data["ops"]

    # -- per-layer -------------------------------------------------------

    def import_scipy_stats_s(self) -> float:
        """Median over probes of :func:`scipy_import_s` for ``import swirlaudit.cli``."""
        log, err = self.work / "importtime.out", self.work / "importtime.err"
        values = []
        for _ in range(LAYER_PROBES):
            done = self.spawn(self.python("-X", "importtime", "-c", "import swirlaudit.cli"),
                              log, stderr_log=err)
            if done.code != 0:
                raise RuntimeError(f"importtime probe exited {done.code}")
            values.append(scipy_import_s(err.read_text()))
        return statistics.median(values)

    def per_layer(self, ops) -> dict:
        interpreter_s = statistics.median(self.probe(self.python("-c", "pass"), LAYER_PROBES))
        traced = [op for op in ops if op["traced"]]
        plain = [op for op in ops if not op["traced"]]
        metrics = {
            "cli.interpreter_s": interpreter_s,
            "cli.import_s": statistics.median(
                end - start for _sid, name, start, end, _p, _op in self.spans
                if name == "cli.import"),
            "cli.import_scipy_stats_s": self.import_scipy_stats_s(),
        }
        metrics.update(spans.layer_metrics(self.spans, self.counts, len(traced)))
        accounted = spans.op_accounting(self.spans, {op["op"]: op["wall_s"] for op in traced})
        metrics["trace.overhead_ratio"] = (statistics.median(op["wall_s"] for op in traced)
                                           / statistics.median(op["wall_s"] for op in plain))
        metrics["trace.accounted_ratio"] = statistics.median(accounted.values())
        return metrics

    # -- the run ---------------------------------------------------------

    def run(self) -> dict:
        record = {"workload": self.name, "why": self.workload.why, "n": self.workload.n,
                  "base_seed": self.base_seed, "seconds": self.seconds, "trace": self.trace,
                  "environment": environment(self.workload)}
        if self.workload.kind == "external":
            self.make_inputs()
        setup = [] if self.trace else self.setup_walls()
        ops = self.sweep_loop() if self.workload.kind == "sweep" else self.cli_loop()
        attempted, failed = fail_counts(ops)
        if self.trace:
            metrics = self.per_layer(ops)
            units = {m: layer_unit(m) for m in metrics}
            extra = {"fail_ratio": failed / attempted}
        else:
            metrics, extra = end_to_end(ops, setup, self.workload.n)
            units = END_TO_END_UNITS
        record.update({"setup_walls_s": setup, "ops": ops, "metrics": metrics,
                       "extra": extra})
        return {"record": record, "units": units, "attempted": attempted, "failed": failed}


def layer_unit(metric: str) -> str:
    if metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("_mb_per_s"):
        return "MB/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def print_table(result: dict) -> None:
    rec = result["record"]
    print(f"workload {rec['workload']}  n={rec['n']}  base seed {rec['base_seed']}  "
          f"trace {int(rec['trace'])}  ops {result['attempted']}")
    for name, value in rec["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {result['units'][name]}")
    for name, unit in EXTRA_UNITS.items():
        if name in rec["extra"]:
            print(f"  {name:34s} {rec['extra'][name]:14.6g} {unit}  (not gated)")
    if "op_s.tail" in rec["extra"]:
        tail = rec["extra"]["op_s.tail"]
        if tail is None:
            print(f"  {'op_s.tail':34s} omitted: {len(rec['ops'])} ops leave fewer than "
                  f"{TAIL_BEYOND} beyond p50")
        else:
            print(f"  {'op_s.tail':34s} {tail['value']:14.6g} s  (p{tail['percentile']:g} "
                  f"of {tail['samples']} ops, not gated)")
    print(f"  {'fail_ratio':34s} {rec['extra']['fail_ratio']:14.6g}  "
          f"({result['failed']}/{result['attempted']})")
    uncertified = [op["seed"] for op in rec["ops"] if op["certified"] is False]
    if uncertified:
        print(f"  not certified (uniformity p <= alpha, checked): seeds {uncertified}")
    for op in rec["ops"]:
        if op["error"] is not None:
            print(f"  op {op['op']} seed {op['seed']} FAILED: {op['error']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "swirlaudit" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result["record"], indent=1))
    if args.trace:
        (results / f"trace-{stem}.json").write_text(
            json.dumps({"spans": bench.spans, "counts": bench.counts}))
    print_table(result)
    metrics = result["record"]["metrics"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
