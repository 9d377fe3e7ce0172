"""Point-cloud figures: the radial swirl profile and self-contained SVG scatters.

The swirl profile is the empirical signature of the radius-dependent
rotation: the mean angular displacement between paired points as a function
of their radius.  For the pipeline it should trace ``a * (r - c)`` inside the
cutoff radius and vanish outside.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from numpy.typing import ArrayLike, NDArray

from swirlaudit._atomic import atomic_write
from swirlaudit.audits import _digitize, _require_paired, _sort_order
from swirlaudit.transforms import BLOCK_ROWS, Dataset

__all__ = ["swirl_profile", "render_scatter_svg"]

_PROFILE_DTYPE = np.dtype(
    [
        ("r_lo", np.float64),
        ("r_hi", np.float64),
        ("r_mean", np.float64),
        ("count", np.int64),
        ("mean_angle", np.float64),
    ]
)


def _unwrap(p: NDArray[np.float64]) -> NDArray[np.float64]:
    """``np.unwrap(p)`` of a 1-D float64 array, bit for bit, with its phase correction
    worked out at the jumps alone.

    The correction is a running sum of per-step terms that are +0.0 except at steps
    of at least pi (or NaN), and no partial sum is -0.0, so the sum changes only at
    those jumps: it is summed over them and spread over the runs between them.
    Adding it, +0.0 included, rounds as ``np.unwrap`` does.
    """
    rise = np.diff(p)
    np.abs(rise, out=rise)
    jumps = np.flatnonzero(~(rise < np.pi))
    runs = np.diff(jumps, prepend=0, append=rise.size)
    del rise
    step = p[jumps + 1] - p[jumps]
    stepmod = np.mod(step + np.pi, 2 * np.pi) - np.pi
    np.copyto(stepmod, np.pi, where=(stepmod == -np.pi) & (step > 0))
    correction = np.repeat(np.concatenate(([0.0], np.cumsum(stepmod - step))), runs)
    out = np.empty_like(p)
    out[:1] = p[:1]
    np.add(p[1:], correction, out=out[1:])
    return out


def swirl_profile(Z: Dataset, Zp: Dataset, bin_width: float = 0.01) -> NDArray:
    """Mean angular displacement between paired clouds, binned by radius.

    The displacement of a pair is the signed angle ``atan2(z x z', z . z')``, in
    (-pi, pi]: exactly zero for an untouched point, whose cross product with
    itself cancels.  These are unwrapped along decreasing radius (anchored
    at the outermost points, which a swirl leaves fixed), so rotations larger
    than half a turn near the origin are reported with their true magnitude
    rather than their wrapped remainder.

    Returns a structured array with fields ``r_lo, r_hi, r_mean, count,
    mean_angle`` covering radii from 0 to just past ``sqrt(2)``; empty bins
    carry ``count = 0`` and NaN means.
    """
    _require_paired(Z, Zp)
    if not bin_width > 0.0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    (z1, z2), (w1, w2) = Z.points.T, Zp.points.T
    radii = Z.radii()
    order = _sort_order(radii)[0][::-1]
    unwrapped = np.empty(Z.n)
    unwrapped[order] = _unwrap(np.arctan2(z1 * w2 - z2 * w1, z1 * w1 + z2 * w2)[order])

    n_bins = math.ceil(math.sqrt(2.0) / bin_width)
    edges = np.linspace(0.0, n_bins * bin_width, n_bins + 1)
    idx = _digitize(radii, edges, n_bins / edges[-1])
    idx -= 1
    np.clip(idx, 0, n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        angle_mean = np.bincount(idx, weights=unwrapped, minlength=n_bins) / counts
        radius_mean = np.bincount(idx, weights=radii, minlength=n_bins) / counts

    table = np.empty(n_bins, dtype=_PROFILE_DTYPE)
    table["r_lo"] = edges[:-1]
    table["r_hi"] = edges[1:]
    table["r_mean"] = radius_mean
    table["count"] = counts
    table["mean_angle"] = angle_mean
    return table


def render_scatter_svg(
    points: ArrayLike,
    path: str | Path,
    axis_range: tuple[float, float] = (-1.05, 1.05),
    title: str = "",
) -> None:
    """Write a standalone SVG scatter of a 2-D point cloud.

    No plotting library involved: each point becomes one ``<circle>`` inside
    a framed 560-pixel square viewport mapping ``axis_range`` on both axes.
    """
    pts = np.asarray(points, dtype=np.float64)
    lo, hi = axis_range
    if not hi > lo:
        raise ValueError(f"axis range must be increasing, got {axis_range}")
    size_px = 560
    pad = 20.0
    point_radius = 1.3
    inner = size_px - 2.0 * pad
    scale = inner / (hi - lo)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size_px}" height="{size_px}" '
        f'viewBox="0 0 {size_px} {size_px}">',
        f'<rect x="0" y="0" width="{size_px}" height="{size_px}" fill="white"/>',
        f'<rect x="{pad:.1f}" y="{pad:.1f}" width="{inner:.1f}" height="{inner:.1f}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        lines.append(
            f'<text x="{size_px / 2:.1f}" y="{pad - 6:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{title}</text>'
        )
    lines.append('<g fill="#30669c" fill-opacity="0.45" stroke="none">')
    circle = f'<circle cx="%.2f" cy="%.2f" r="{point_radius}"/>\n'
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")
        for start in range(0, len(pts), BLOCK_ROWS):
            block = pts[start:start + BLOCK_ROWS]
            xy = np.empty_like(block)
            xy[:, 0] = pad + (block[:, 0] - lo) * scale
            xy[:, 1] = size_px - pad - (block[:, 1] - lo) * scale
            fh.write(circle * len(block) % tuple(xy.ravel().tolist()))
        fh.write("</g>\n</svg>\n")
