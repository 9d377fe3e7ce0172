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
# are dropped, and the point too when no fraction is left.  D is exact in
# float64: 10**p is exact for p = 16 - X <= 22, Dekker's TwoProduct (Numer.
# Math. 18, 1971) gives v * 10**p = hi + lo exactly, and hi >= 2**53 is an even
# integer, so D = hi + rint(lo) rounds half to even.  Every other value goes
# through "%.17g" itself: zeros, |v| < 1e-4 (exponent form), subnormals,
# |v| >= 2**53, NaN and infinities.
#
# A value's text is built in a 24-byte row of three uint64 words, separator
# first, so a file is its header, "\n" + x + "," + y for each point, and "\n".
# After the separator come the sign and, for X < 0, the "0." and zeros that
# lead the digits; the leading digit is byte 7 and the other 16 fill bytes
# 8-23, trailing zeros blanked.  With X >= 0 the sign and integer digits move
# one byte left, and the point follows them if a fraction is left.  A text
# too long for its row (-1.7976931348623157e+308) has its last byte spliced in
# after the row.  Zero bytes are padding, deleted when the block is joined.
_ROW_BYTES = 24
_U64 = np.uint64
_U32, _E8, _E16, _E17 = _U64(32), _U64(10 ** 8), _U64(10 ** 16), _U64(10 ** 17)
_BLANKED = 10000  # offset of the digit table's entries with trailing zeros blanked
_TEN = 10.0 ** np.arange(22)  # every 10**p an exponent guess can ask for, all exact
_POWERS_OF_TEN = np.array([10.0 ** k for k in range(-4, 17)])  # entry k + 4


def _veltkamp(a):
    """Split ``a`` into two halves of at most 26 significant bits each, summing to ``a``."""
    scaled = a * (2.0 ** 27 + 1)
    high = scaled - (scaled - a)
    return high, a - high


_TEN_HIGH, _TEN_LOW = _veltkamp(_TEN)


def _digit_table() -> NDArray[np.uint64]:
    """Four digits in the low half of a uint64.

    Entry k < 10000 holds the four digits of k (leading zeros kept); entry
    10000 + k holds them with the trailing zeros blanked.
    """
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)  # small dtypes keep import RSS flat
    four = (np.arange(10000, dtype=np.uint16)[:, None] // place % np.uint16(10)).astype(np.uint8)
    four += ord("0")
    trailing = np.logical_and.accumulate(four[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    groups = np.stack([four, np.where(trailing, np.uint8(0), four)])
    return groups.view(np.uint32).ravel().astype(np.uint64)


def _row_heads() -> NDArray[np.uint64]:
    """Word 0 of a row for each (X + 4, leading digit, negative, column): the
    separator, the sign, the zeros that lead X < 0 and the leading digit."""
    heads = np.zeros((20, 10, 2, 2, 8), dtype=np.uint8)
    heads[..., 0, 0] = ord("\n")
    heads[..., 1, 0] = ord(",")
    heads[..., 7] = (ord("0") + np.arange(10, dtype=np.uint8))[:, None, None]
    for x in range(-4, 16):
        lead = np.frombuffer(b"0." + b"0" * (-x - 1) if x < 0 else b"", dtype=np.uint8)
        heads[x + 4, ..., 7 - len(lead):7] = lead
        heads[x + 4, :, 1, :, 6 - len(lead)] = ord("-")
    return heads.view(np.uint64).ravel()


_DIGITS = _digit_table()
_ROW_HEADS = _row_heads()


def _significand(mag, x):
    """``round(mag * 10**(16 - x))``, half to even, exact where it is at least 2**53;
    a smaller result, below 10**16, only flags a wrong ``x``."""
    p = 16 - x
    hi = mag * _TEN[p]
    mag_high, mag_low = _veltkamp(mag)
    ten_high, ten_low = _TEN_HIGH[p], _TEN_LOW[p]
    lo = mag_high * ten_high - hi  # the four partial products are exact
    lo += mag_high * ten_low
    lo += mag_low * ten_high
    lo += mag_low * ten_low
    d = hi.astype(np.uint64)
    d += np.rint(lo).astype(np.int64).view(np.uint64)  # wraps to a subtraction when lo < 0
    return d


def _divmod(values, unit):
    """``np.divmod(values, unit)`` for unsigned ``values``: floor division by a scalar
    and a multiply-subtract are several times faster than ``np.divmod``."""
    quotient = values // unit
    return quotient, values - quotient * unit


def _format_rows(block: NDArray[np.float64]) -> bytes:
    """``"%.17g"`` of each value of the ``(m, 2)`` block, each row's two values
    preceded by a newline and joined by ",", as one byte string.

    The columns are read in place, with no interleaving copy of the block:
    every per-value array holds the first column's values, then the
    second's, and each word is copied into the rows one column at a time.
    """
    m = len(block)
    values = block.T
    mag = np.abs(values).ravel()
    fast = (mag >= 1e-4) & (mag < 2.0 ** 53)
    mag[~fast] = 1.0  # their rows are overwritten below
    biased = mag.view(np.intp) >> 52  # the biased binary exponent
    # floor((biased - 1023) * log10(2)) is X or X - 1; a comparison with the
    # next power of ten picks one, and the loop corrects any guess still wrong
    x = ((biased - 1023) * 78913) >> 18
    x += mag >= _POWERS_OF_TEN[x + 5]
    d = _significand(mag, x)
    wrong = np.flatnonzero((d < _E16) | (d >= _E17))
    while wrong.size:  # a guess off by one, or D rounded up to 10**17
        x[wrong] += np.where(d[wrong] < _E16, -1, 1)
        d[wrong] = _significand(mag[wrong], x[wrong])
        wrong = wrong[(d[wrong] < _E16) | (d[wrong] >= _E17)]

    top, bottom = _divmod(d, _E8)
    lead, top = _divmod(top.astype(np.uint32), np.uint32(10 ** 8))
    g1, g2 = _divmod(top, np.uint32(10 ** 4))
    g3, g4 = _divmod(bottom.astype(np.uint32), np.uint32(10 ** 4))
    head = (x * 10 + 40 + lead) * 4 + np.signbit(values).ravel() * 2
    head[m:] += 1
    words = [np.take(_ROW_HEADS, head)]
    for low, high in ((g1, g2), (g3, g4 + _BLANKED)):  # four digits in each half of a word
        word = np.take(_DIGITS, high.astype(np.intp)) << _U32
        words.append(word | np.take(_DIGITS, low.astype(np.intp)))
    # the last four digits come with trailing zeros blanked; blank those before
    # them too: in word 2 where its high half is blank, in word 1 where word 2 is
    blank = np.flatnonzero(g4 == 0)
    for word, low, high in ((words[2], g3, g4), (words[1], g1, g2)):
        low, high = low[blank], high[blank]
        word[blank] = _DIGITS[high + _BLANKED] << _U32 | _DIGITS[low + _BLANKED * (high == 0)]
        blank = blank[(low == 0) & (high == 0)]
    rows = np.empty((m, 2, _ROW_BYTES // 8), dtype=np.uint64)
    for k, word in enumerate(words):
        rows[:, 0, k] = word[:m]
        rows[:, 1, k] = word[m:]
    text = rows.view(np.uint8).reshape(2 * m, _ROW_BYTES)

    def row_of(i):  # the row of text of value i
        return 2 * i - (i >= m) * (2 * m - 1)

    integral = np.flatnonzero(x >= 0)
    integral_x = x[integral]
    for xi in np.flatnonzero(np.bincount(integral_x)).tolist():  # np.unique would import numpy.ma
        r = row_of(integral[integral_x == xi])
        t = text[r]
        t[:, 8:8 + xi] |= ord("0")  # integer digits blanked as trailing zeros
        t[:, 5:7 + xi] = t[:, 6:8 + xi]
        t[:, 7 + xi] = np.where(t[:, 8 + xi] != 0, ord("."), 0)
        text[r] = t

    spills = []
    for i in np.flatnonzero(~fast).tolist():
        row = ("\n,"[i // m] + "%.17g" % values.flat[i]).encode()
        r = row_of(i)
        text[r] = np.frombuffer(row[:_ROW_BYTES].ljust(_ROW_BYTES, b"\0"), dtype=np.uint8)
        if len(row) > _ROW_BYTES:
            spills.append((r, row[_ROW_BYTES:]))
    spills.sort()  # in the order of the rows, not of the values
    padded = rows.tobytes()
    cuts = [0] + [(r + 1) * _ROW_BYTES for r, _ in spills] + [len(padded)]
    tails = [tail for _, tail in spills] + [b""]
    return b"".join(padded[start:end].translate(None, b"\0") + tail
                    for start, end, tail in zip(cuts, cuts[1:], tails))


def write_cloud_csv(path: str | Path, points: NDArray[np.float64], header: str = "z1,z2") -> None:
    """Write a point cloud as CSV with round-trip-safe decimal formatting."""
    if header not in CLOUD_HEADERS:
        raise ValueError(f"header must be one of {CLOUD_HEADERS}, got {header!r}")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    with atomic_write(path, binary=True) as fh:
        fh.write(header.encode())
        for start in range(0, len(pts), CSV_BLOCK_ROWS):
            fh.write(_format_rows(pts[start:start + CSV_BLOCK_ROWS]))
        fh.write(b"\n")


def _utf8_lines(path: str | Path, fh):
    """The lines of ``fh``; a byte that is not UTF-8 raises :class:`MalformedRowError`."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise MalformedRowError(f"{path}: not UTF-8 text") from None


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
        reader = csv.reader(_utf8_lines(path, fh))
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
        reader = csv.reader(_utf8_lines(path, fh))
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
