"""In-memory spans, timing shims around swirlaudit's public functions, and
the arithmetic that turns spans into per-layer metrics.

A span is ``[id, name, start, end, parent, op]``: ``start`` and ``end`` are
``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux, so readings from
a parent and its child processes share one clock), ``parent`` is the id of
the enclosing span or ``None``, and ``op`` names the benchmark operation the
span belongs to.  Spans stay in memory until :meth:`Tracer.dump`.

:meth:`Tracer.install` replaces each function listed in ``SPANNED`` and
``COUNTED`` wherever a loaded ``swirlaudit`` module holds a reference to it:
in its defining module and in every module that imported it by name (for
example ``swirlaudit.cli.write_cloud_csv``).  Calls resolved through module
globals therefore pass through the shim.  :meth:`Tracer.uninstall` puts the
originals back.  No file of the package is changed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# Functions wrapped in a span, by module.  ``mix``, ``unmix`` and
# ``mpa_forward``/``mpa_inverse`` are not wrapped: the audits call them inside
# their checks, and their time is charged to the calling check.
SPANNED = {
    "transforms": ("sample_uniform_square", "apply_pipeline"),
    "audits": (
        "run_audit",
        "check_continuity",
        "check_sigma_algebra_proxy",
        "check_compact_support",
        "check_independent_support",
        "check_uniformity",
        "check_coordinatewise_relation",
    ),
    "reporting": (
        "write_cloud_csv",
        "read_cloud_csv",
        "load_external_cloud",
        "write_profile_csv",
        "build_report",
        "write_report_json",
    ),
    "figures": ("swirl_profile", "render_scatter_svg"),
    "config": ("load_config",),
    "cli": ("main",),
}

# Functions whose calls are counted but which get no span of their own, so
# their time stays with the caller.
COUNTED = {"audits": ("bounding_box",)}

# Span name -> index of the positional argument naming the file it reads or
# writes; the file's size is added to the counter ``<span name>.bytes``.
FILE_ARG = {
    "reporting.write_cloud_csv": 0,
    "reporting.read_cloud_csv": 0,
    "reporting.write_profile_csv": 0,
    "reporting.write_report_json": 0,
    "figures.render_scatter_svg": 1,
}

ROOT = "op"

# Per-layer time metric -> span names whose self time it sums, per op.
LAYER_TIMES = {
    "cli.start_s": ("cli.start",),
    "cli.exit_s": ("cli.exit",),
    "cli.self_s": ("cli.main",),
    "config.load_config_s": ("config.load_config",),
    "transforms.sample_s": ("transforms.sample_uniform_square",),
    "transforms.pipeline_s": ("transforms.apply_pipeline",),
    "audits.run_audit_s": ("audits.run_audit",),
    "audits.continuity_s": ("audits.check_continuity",),
    "audits.sigma_algebra_s": ("audits.check_sigma_algebra_proxy",),
    "audits.compact_support_s": ("audits.check_compact_support",),
    "audits.independent_support_s": ("audits.check_independent_support",),
    "audits.uniformity_s": ("audits.check_uniformity",),
    "audits.relation_s": ("audits.check_coordinatewise_relation",),
    "reporting.write_cloud_csv_s": ("reporting.write_cloud_csv",),
    "reporting.read_cloud_csv_s": ("reporting.read_cloud_csv", "reporting.load_external_cloud"),
    "reporting.write_profile_csv_s": ("reporting.write_profile_csv",),
    "reporting.report_json_s": ("reporting.build_report", "reporting.write_report_json"),
    "figures.swirl_profile_s": ("figures.swirl_profile",),
    "figures.render_svg_s": ("figures.render_scatter_svg",),
}

# Throughput metric -> span whose file bytes are divided by its self time.
LAYER_RATES = {
    "reporting.write_cloud_csv_mb_per_s": "reporting.write_cloud_csv",
    "reporting.read_cloud_csv_mb_per_s": "reporting.read_cloud_csv",
    "figures.render_svg_mb_per_s": "figures.render_scatter_svg",
}

# Count metric -> counters it sums, per op.
LAYER_COUNTS = {
    "transforms.sample_calls": ("transforms.sample_uniform_square.calls",),
    "audits.bounding_box_calls": ("audits.bounding_box.calls",),
    "reporting.bytes_written": (
        "reporting.write_cloud_csv.bytes",
        "reporting.write_profile_csv.bytes",
        "reporting.write_report_json.bytes",
    ),
}


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.op = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured elsewhere (e.g. an import)."""
        self.spans.append([len(self.spans), name, start, end, None, self.op])

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[self.op][key] += amount

    def _spanned(self, name, fn):
        file_arg = FILE_ARG.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            self.count(name + ".calls")
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
                if file_arg is not None and len(args) > file_arg:
                    try:
                        self.count(name + ".bytes", os.path.getsize(args[file_arg]))
                    except OSError:
                        pass

        return shim

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            self.count(name + ".calls")
            return fn(*args, **kwargs)

        return shim

    def install(self) -> None:
        """Shim every listed function in every loaded swirlaudit module."""
        if self._originals:
            raise RuntimeError("shims are already installed")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "swirlaudit" or k.startswith("swirlaudit."))]
        for make, table in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for layer, names in table.items():
                home = sys.modules["swirlaudit." + layer]
                for fname in names:
                    original = getattr(home, fname)
                    shim = make(f"{layer}.{fname}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, shim)
                                self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }


def merge(spans: list, child_spans, parent=None) -> None:
    """Append another process's spans to ``spans``, renumbering their ids.

    Spans without a parent are attached to ``parent``.
    """
    base = len(spans)
    for sid, name, start, end, par, op in child_spans:
        spans.append([base + sid, name, start, end, parent if par is None else base + par, op])


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(start, end, children[sid])
        for sid, _name, start, end, _parent, _op in spans
    }


def layer_metrics(spans, counts: dict, n_ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans and counters of ``n_ops`` traced ops.

    Only spans and counters that belong to an op (``op`` not ``None``) are
    included; times and counts are totals divided by ``n_ops``, rates are
    file bytes over self seconds (0 where the layer did no work).
    """
    if n_ops < 1:
        raise ValueError("need at least one traced op")
    own = self_times(spans)
    by_name = defaultdict(float)
    for sid, name, _start, _end, _parent, op in spans:
        if op is not None:
            by_name[name] += own[sid]
    totals = defaultdict(int)
    for op, per_op in counts.items():
        if op not in (None, "None"):
            for key, value in per_op.items():
                totals[key] += value

    out = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = sum(by_name[n] for n in names) / n_ops
    for metric, name in LAYER_RATES.items():
        seconds = by_name[name]
        out[metric] = totals[name + ".bytes"] / 1e6 / seconds if seconds > 0 else 0.0
    for metric, keys in LAYER_COUNTS.items():
        out[metric] = sum(totals[k] for k in keys) / n_ops
    return out


def op_accounting(spans, op_wall: dict) -> dict:
    """Share of each traced op's wall time that the layer self times explain.

    ``op_wall`` maps op id to its wall seconds.  Returns
    ``{op: sum of the self times of the op's non-root spans / wall}``.
    """
    own = self_times(spans)
    explained = defaultdict(float)
    for sid, name, _start, _end, _parent, op in spans:
        if op is not None and name != ROOT:
            explained[op] += own[sid]
    return {op: explained[op] / wall for op, wall in op_wall.items()}
