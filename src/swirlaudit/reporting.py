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

from swirlaudit import __version__
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

# Rows formatted per block by the cloud writer: large enough to amortise the
# per-call overhead, small enough that the block's arrays (a few dozen bytes
# per value each) stay a few MB whatever the cloud size.
CSV_BLOCK_ROWS = 8192


# The cloud writer's "%.17g", a block of values at a time.
#
# For 1e-4 <= |v| < 2**53, "%.17g" writes v in fixed notation.  Its digits are
# D = round(v * 10**(16 - X)), rounded half to even, where X is the decimal
# exponent for which 10**16 <= D < 10**17.  The point goes after digit X + 1,
# or after "0." and -X - 1 zeros when X < 0.  Then trailing fractional zeros
# are dropped, and the point too when no fraction is left.  With
# v = m * 2**e (m < 2**53) and p = 16 - X, D = round(m * 5**p * 2**(e + p)),
# computed exactly in two uint64 limbs.  Every other value goes through
# "%.17g" itself: zeros, |v| < 1e-4 (exponent form), subnormals, |v| >= 2**53,
# NaN and infinities.
#
# A value's text is built in a 40-byte row: the sign, the "0." and zeros
# that lead X < 0, then the 17 digits at the even bytes 6, 8, ..., 38, each
# followed by a byte that may hold the point; byte 39 holds the separator.
# Zero bytes are padding, deleted when the block is joined into one string.
_ROW_BYTES = 40
_U64 = np.uint64  # every operand of the limb arithmetic: with int64 it would become float64
_ONE, _THREE, _U32, _U52, _U64_BITS = _U64(1), _U64(3), _U64(32), _U64(52), _U64(64)
_LOW32 = _U64(0xFFFFFFFF)
_MANTISSA, _HIDDEN_BIT = _U64((1 << 52) - 1), _U64(1 << 52)
_E8, _E16, _E17 = _U64(10 ** 8), _U64(10 ** 16), _U64(10 ** 17)
# 5**p in 32-bit halves, for every p that an exponent guess can give (0..21)
_POW5_HI = np.array([5 ** p >> 32 for p in range(22)], dtype=np.uint64)
_POW5_LO = np.array([5 ** p & 0xFFFFFFFF for p in range(22)], dtype=np.uint64)
# 10**(16 - X): D has a fraction iff D % this is not 0 (rows with X < 0 ignore it)
_FRACTION_UNIT = np.array([10 ** (16 - max(x, 0)) for x in range(-4, 16)], dtype=np.uint64)


def _digit_tables() -> tuple[NDArray[np.uint64], NDArray[np.uint64]]:
    """Digits as 8-byte words, each digit at an even byte of its word.

    Entry k < 10000 of the first table holds the four digits of k (leading
    zeros kept); entry 10000 + k holds them with the trailing zeros blanked.
    Entry k of the second table holds the single digit k at byte 6, where a
    row's leading digit goes.
    """
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)  # small dtypes keep import RSS flat
    four = (np.arange(10000, dtype=np.uint16)[:, None] // place % np.uint16(10)).astype(np.uint8)
    four += ord("0")
    trailing = np.logical_and.accumulate(four[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    groups = np.zeros((2, 10000, 8), dtype=np.uint8)
    groups[:, :, ::2] = four
    groups[1, :, ::2][trailing] = 0
    lead = np.zeros((10, 8), dtype=np.uint8)
    lead[:, 6] = ord("0") + np.arange(10)
    return groups.view(np.uint64).ravel(), lead.view(np.uint64).ravel()


def _row_templates() -> NDArray[np.uint64]:
    """Everything of a row but its digits, for each (X + 4, point, negative, column).

    Integer digit positions hold "0", so that a digit blanked as a trailing
    zero still prints there; the digit bytes are OR-ed over it.
    """
    rows = np.zeros((20, 2, 2, 2, _ROW_BYTES), dtype=np.uint8)
    rows[:, :, 1, :, 0] = ord("-")
    rows[..., 0, -1] = ord(",")
    rows[..., 1, -1] = ord("\n")
    for x in range(-4, 0):
        lead = np.frombuffer(b"0." + b"0" * (-x - 1), dtype=np.uint8)
        rows[x + 4, ..., 1:1 + len(lead)] = lead
    for x in range(16):
        rows[x + 4, ..., 6:7 + 2 * x:2] = ord("0")
        rows[x + 4, 1, ..., 7 + 2 * x] = ord(".")
    return rows.reshape(-1, _ROW_BYTES).view(np.uint64)


_DIGIT_GROUPS, _LEAD_DIGIT = _digit_tables()
_ROW_TEMPLATES = _row_templates()


def _significand(m8, e, x):
    """``round(m8 / 8 * 2**e * 10**(16 - x))``, half to even, exactly.

    ``m8 = 8 m < 2**56`` and ``5**(16 - x) < 2**49``, so the product of their
    32-bit halves fits two uint64 limbs, and the shift is 3 - e - p >= 1.
    """
    p = 16 - x
    f_hi, f_lo = _POW5_HI[p], _POW5_LO[p]
    m_hi, m_lo = m8 >> _U32, m8 & _LOW32
    mid = m_hi * f_lo + m_lo * f_hi
    low = m_lo * f_lo
    lo = low + (mid << _U32)
    hi = m_hi * f_hi + (mid >> _U32) + (lo < low)  # lo < low: the carry
    shift = (x - e - 13).astype(np.uint64)
    q = (lo >> shift) | (hi << (_U64_BITS - shift))
    shift -= _ONE
    half = (lo >> shift) & _ONE
    below_half = (lo & ((_ONE << shift) - _ONE)) != 0
    return q + (half & (below_half | (q & _ONE)))


def _format_rows(values: NDArray[np.float64]) -> str:
    """``"%.17g"`` of each value, followed by "," at even and a newline at odd
    positions, as one string."""
    mag = np.abs(values)
    fast = (mag >= 1e-4) & (mag < 2.0 ** 53)
    mag[~fast] = 1.0  # their rows are overwritten below
    bits = mag.view(np.uint64)
    biased = (bits >> _U52).astype(np.int64)
    m8 = ((bits & _MANTISSA) | _HIDDEN_BIT) << _THREE
    e = biased - 1075
    # guess X from log10, held to the two values that the binary exponent
    # allows, floor((biased - 1023) * log10(2)) and one more; then correct it
    floor_x = ((biased - 1023) * 78913) >> 18
    x = np.clip(np.floor(np.log10(mag)).astype(np.int64), floor_x, floor_x + 1)
    d = _significand(m8, e, x)
    wrong = np.flatnonzero((d < _E16) | (d >= _E17))
    while wrong.size:  # a guess off by one, or D rounded up to 10**17
        x[wrong] += np.where(d[wrong] < _E16, -1, 1)
        d[wrong] = _significand(m8[wrong], e[wrong], x[wrong])
        wrong = wrong[(d[wrong] < _E16) | (d[wrong] >= _E17)]

    top, bottom = np.divmod(d, _E8)
    lead, top = np.divmod(top.astype(np.uint32), np.uint32(10 ** 8))
    g1, g2 = np.divmod(top, np.uint32(10 ** 4))
    g3, g4 = np.divmod(bottom.astype(np.uint32), np.uint32(10 ** 4))
    rows = np.empty((len(values), _ROW_BYTES // 8), dtype=np.uint64)
    rows[:, 0] = _LEAD_DIGIT[lead]
    last = np.ones(len(values), dtype=bool)  # no later group has a digit other than 0
    for col, group in ((4, g4), (3, g3), (2, g2), (1, g1)):
        rows[:, col] = _DIGIT_GROUPS[group + 10000 * last]
        last &= group == 0
    point = d % _FRACTION_UNIT[x + 4] != 0
    template = (x + 4) * 8 + point * 4 + (values < 0) * 2
    template[1::2] += 1
    rows |= np.take(_ROW_TEMPLATES, template, axis=0)

    text = rows.view(np.uint8)
    for i in np.flatnonzero(~fast):
        row = ("%.17g" % values[i] + ",\n"[i % 2]).encode()
        text[i] = 0
        text[i, :len(row)] = np.frombuffer(row, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")


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
            fh.write(_format_rows(pts[start:start + CSV_BLOCK_ROWS].ravel()))


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
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
    """Write a swirl-profile table (structured array) as CSV, 17 significant digits
    per real and ``nan`` for the means of an empty bin."""
    with atomic_write(path) as fh:
        np.savetxt(fh, profile, fmt=["%.17g"] * 3 + ["%d", "%.17g"], delimiter=",",
                   header=",".join(profile.dtype.names), comments="")


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


def build_report(report: AuditReport, parameters: dict) -> dict:
    """Assemble the machine-readable report document of ``report``, stamped with this
    package's version and the current UTC time; ``parameters`` records what was run,
    and its ``seed`` (None without one) is the document's."""
    return {
        "tool": "swirlaudit",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": parameters.get("seed"),
        "parameters": dict(parameters),
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
