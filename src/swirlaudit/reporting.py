"""Persistence: CSV point clouds, swirl-profile tables, and JSON reports.

Point clouds are UTF-8 CSV with a two-column header (``z1,z2`` for latent
clouds, ``x1,x2`` for observations) and 17 significant digits per value, so
float64 coordinates round-trip exactly.  Reports are JSON with the timestamp
isolated on its own line; everything else is a pure function of config and
seed, so repeated runs are byte-identical apart from that line.  Every file
is written through a temporary sibling and moved into place, so a failed
write never leaves a partial or mixed file behind.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from swirlaudit._atomic import atomic_write
from swirlaudit.audits import AuditReport, CoordRelationVerdict
from swirlaudit.errors import EmptyDatasetError, LabelMismatchError, MalformedRowError
from swirlaudit.transforms import Dataset

__all__ = [
    "write_cloud_csv",
    "read_cloud_csv",
    "load_external_cloud",
    "write_profile_csv",
    "build_report",
    "write_report_json",
]

CLOUD_HEADERS = ("z1,z2", "x1,x2")

# Rows formatted per string operation by the cloud writer: large enough to
# amortise the per-call overhead, small enough that the block string stays a
# few MB whatever the cloud size.
CSV_BLOCK_ROWS = 65536


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_cloud_csv(path: str | Path, points: NDArray[np.float64], header: str = "z1,z2") -> None:
    """Write a point cloud as CSV with round-trip-safe decimal formatting."""
    if header not in CLOUD_HEADERS:
        raise ValueError(f"header must be one of {CLOUD_HEADERS}, got {header!r}")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(pts), CSV_BLOCK_ROWS):
            block = pts[start:start + CSV_BLOCK_ROWS]
            # "%.17g" formats exactly as _fmt does, one row per template copy.
            fh.write(("%.17g,%.17g\n" * len(block)) % tuple(block.ravel().tolist()))


def _read_header(path: str | Path, reader) -> str:
    """The header of a cloud CSV: the first record of ``reader``, checked."""
    try:
        header_fields = next(reader)
    except StopIteration:
        raise EmptyDatasetError(f"{path}: file is empty") from None
    header = ",".join(f.strip() for f in header_fields)
    if header not in CLOUD_HEADERS:
        raise MalformedRowError(
            f"{path}: row 1: expected header {CLOUD_HEADERS[0]!r} or "
            f"{CLOUD_HEADERS[1]!r}, got {header!r}"
        )
    return header


def _read_rows(path: str | Path) -> tuple[NDArray[np.float64], str]:
    """:func:`read_cloud_csv` through the ``csv`` module, row by row: slow,
    but it names the first row that is not two reals."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(path, reader)
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != 2:
                raise MalformedRowError(
                    f"{path}: row {lineno}: expected 2 columns, got {len(fields)}"
                )
            try:
                rows.append((float(fields[0]), float(fields[1])))
            except ValueError:
                raise MalformedRowError(
                    f"{path}: row {lineno}: cannot parse {fields!r} as two reals"
                ) from None
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64), header


def read_cloud_csv(path: str | Path) -> tuple[NDArray[np.float64], str]:
    """Read a point cloud written by :func:`write_cloud_csv` (or compatible).

    Returns the ``(n, 2)`` array and the header line.  Rows that do not hold
    exactly two parseable floats raise :class:`MalformedRowError` with the
    offending row number.

    The rows are parsed by ``np.loadtxt``, which reads floats with the parser
    that ``float`` uses, about three times faster than the ``csv`` module.  A
    file that it rejects, or that does not give two columns and at least one
    row, is read again by :func:`_read_rows`, which gives the same array or
    the error.  Where the two could disagree, ``loadtxt`` fails and the
    ``csv`` path decides: a quoted field, a whitespace-only line, an
    underscore in a number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(path, reader)
    try:
        with warnings.catch_warnings():  # a file without rows is the csv path's error
            warnings.simplefilter("ignore", UserWarning)
            points = np.loadtxt(path, dtype=np.float64, delimiter=",", comments=None,
                                skiprows=reader.line_num, ndmin=2, encoding="utf-8")
    except ValueError:
        points = np.empty((0, 0))
    if len(points) and points.shape[1] == 2:
        return points, header
    return _read_rows(path)


def load_external_cloud(path: str | Path, label: str) -> Dataset:
    """Load a user-supplied latent cloud (header ``z1,z2``) as a dataset (seed 0)."""
    points, header = read_cloud_csv(path)
    if header != "z1,z2":
        raise LabelMismatchError(f"{path}: a latent cloud needs header 'z1,z2', got {header!r}")
    return Dataset(points=points, label=label, seed=0)


def write_profile_csv(path: str | Path, profile: NDArray) -> None:
    """Write a swirl-profile table (structured array) as CSV."""
    with atomic_write(path) as fh:
        fh.write(",".join(profile.dtype.names) + "\n")
        for row in profile:
            fh.write(
                f"{_fmt(row['r_lo'])},{_fmt(row['r_hi'])},{_fmt(row['r_mean'])},"
                f"{int(row['count'])},{_fmt(row['mean_angle'])}\n"
            )


def _relation_dict(verdict: CoordRelationVerdict) -> dict:
    return {
        "verdict": verdict.verdict,
        "threshold": verdict.threshold,
        "best_assignment": list(verdict.best_assignment),
        "best_max_score": verdict.best_max_score,
        "monotonicity": list(verdict.monotonicity),
        "assignments": [
            {
                "perm": list(a.perm),
                "scores_zprime_to_z": list(a.zprime_to_z),
                "scores_z_to_zprime": list(a.z_to_zprime),
                "max_score": a.max_score,
            }
            for a in verdict.assignments
        ],
    }


def build_report(
    report: AuditReport,
    *,
    tool_version: str,
    config_dict: dict | None = None,
    timestamp: str | None = None,
) -> dict:
    """Assemble the machine-readable report document."""
    return {
        "tool": "swirlaudit",
        "version": tool_version,
        "timestamp": timestamp or datetime.now(timezone.utc).isoformat(),
        "seed": report.parameters.get("seed"),
        "parameters": config_dict if config_dict is not None else dict(report.parameters),
        "premises": [
            {"name": p.name, "pass": p.passed, "statistic": p.statistic,
             "threshold": p.threshold, **p.detail}
            for p in report.premises
        ],
        "uniformity_pvalue": report.uniformity_pvalue_zprime,
        "uniformity_alpha": report.uniformity_alpha,
        "relation": _relation_dict(report.conclusion),
        "counterexample_certified": report.counterexample_certified,
    }


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_report_json(path: str | Path, document: dict) -> None:
    """Write the report with a stable layout (timestamp on its own line).

    The file is strict JSON: a non-finite float (NaN, +-inf) is written as
    ``null``.
    """
    with atomic_write(path) as fh:
        json.dump(_finite_or_null(document), fh, indent=2, allow_nan=False)
        fh.write("\n")
