"""Child process of the benchmark: one fresh interpreter per call.

Usage: ``python bench/worker.py '<json spec>'`` with ``PYTHONPATH`` naming
the package's ``src`` directory.  ``spec["mode"]`` is one of

* ``setup``: import ``swirlaudit.cli``, load the config and make one
  warm-up ``run_audit`` call; the parent times this from spawn to exit;
* ``sweep``: the same set-up, then ``run_audit`` over consecutive seeds for
  ``spec["seconds"]``; with ``spec["trace"]`` every second call runs with
  the timing shims installed;
* ``cli``: import ``swirlaudit.cli``, install the timing shims and call
  ``main(spec["argv"])`` once; the exit code is ``main``'s.  The result
  also holds ``boot`` and ``done``, the clock readings that bound the work,
  so the parent can time interpreter start-up and exit.

``sweep`` and ``cli`` write their measurements as JSON to ``spec["result"]``.
"""

from __future__ import annotations

import json
import sys
import time

BOOT = time.perf_counter()  # first reading after interpreter start-up


def _audit_call(cfg):
    from swirlaudit import audits

    def audit(seed):
        return audits.run_audit(
            cfg.mixing2(), cfg.mpa_params(), cfg.n, seed,
            bins_support=cfg.bins_support,
            bins_uniformity=cfg.bins_uniformity,
            bins_relation=cfg.bins_relation,
            functional_threshold=cfg.functional_threshold,
            alpha=cfg.alpha,
            l_max=cfg.l_max,
        )

    return audit


def setup(spec) -> int:
    import swirlaudit.cli  # noqa: F401  (the import every library user pays)
    from swirlaudit.config import load_config

    _audit_call(load_config(spec["config"]))(spec["warmup_seed"])
    return 0


def sweep(spec) -> int:
    from spans import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    import swirlaudit.cli  # noqa: F401
    from swirlaudit.config import load_config
    tracer.record("cli.import", start, time.perf_counter())
    from oracle import check_audit_report
    from reference import kernel_s

    cfg = load_config(spec["config"])
    audit = _audit_call(cfg)
    audit(spec["warmup_seed"])

    ops = []
    refs = [kernel_s()]  # one before each op and one after the last
    deadline = time.perf_counter() + spec["seconds"]
    min_ops = 2 if spec["trace"] else 1
    while len(ops) < min_ops or time.perf_counter() < deadline:
        i = len(ops)
        traced = spec["trace"] and i % 2 == 1
        seed = spec["base_seed"] + i
        error = certified = None
        if traced:
            tracer.op = i
            tracer.install()
            root = tracer.open("op")
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            report = audit(seed)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        if traced:
            tracer.close(root)
            tracer.uninstall()
            tracer.op = None
        if error is None:
            try:
                certified = check_audit_report(report, cfg.n, seed)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        refs.append(kernel_s())
        ops.append({"op": i, "seed": seed, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                    "ref_s": (refs[-2] + refs[-1]) / 2, "certified": certified,
                    "error": error})

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "trace": tracer.dump()}, fh)
    return 0


def cli(spec) -> int:
    from spans import Tracer

    tracer = Tracer()
    tracer.op = spec["op"]
    start = time.perf_counter()
    import swirlaudit.cli as swirl_cli
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return swirl_cli.main(spec["argv"])
    finally:
        tracer.uninstall()
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump({"boot": BOOT, "done": time.perf_counter(), **tracer.dump()}, fh)


MODES = {"setup": setup, "sweep": sweep, "cli": cli}

if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    sys.exit(MODES[job["mode"]](job))
