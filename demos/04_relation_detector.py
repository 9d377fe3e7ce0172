#!/usr/bin/env python3
# Soundness and power of the two statistical detectors.
#
# 1. The coordinate-wise-relation check must accept genuinely coordinate-wise
#    constructions (soundness) and reject the swirl (power).  It scores ranks,
#    so every strictly monotone coordinate-wise map, steep or not, scores the
#    same floor, about 1/bins^2.
# 2. The independent-support check must accept a product support (the square)
#    and reject a non-product one (the disk).
import numpy as np

import swirlaudit as sa
from swirlaudit.audits import check_coordinatewise_relation, check_independent_support
from swirlaudit.transforms import LATENT_ZPRIME, Dataset

n, seed = 100_000, 7
Z = sa.sample_uniform_square(n, seed)

print("coordinate-wise-relation check (threshold 0.01, 50 equal-count bins)")
cases = {
    "identity            Z' = Z": Z.points.copy(),
    "negation            Z' = -Z": -Z.points,
    "swap + cube         Z' = (-Z2, Z1^3)": np.column_stack(
        [-Z.points[:, 1], Z.points[:, 0] ** 3]
    ),
    "ninth power         Z' = Z^9": Z.points ** 9,
    "exponential         Z' = exp(3 Z)": np.exp(3.0 * Z.points),
}
for name, zp in cases.items():
    verdict = check_coordinatewise_relation(Z, Dataset(zp, LATENT_ZPRIME, seed))
    print(f"  {name:38s} -> {verdict.verdict:23s} "
          f"(best max score {verdict.best_max_score:.5f}, perm {verdict.best_assignment})")

A = sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0)
_, Zp = sa.apply_pipeline(A, sa.MpaParams(3.6, 0.9), Z)
verdict = check_coordinatewise_relation(Z, Zp)
print(f"  {'swirl (a=3.6, c=0.9)':38s} -> {verdict.verdict:23s} "
      f"(best max score {verdict.best_max_score:.5f})")

print("\nindependent-support check (10x10 occupancy grid, min count 5)")
for name, data in (
    ("uniform square", sa.sample_uniform_square(n, seed)),
    ("uniform disk", sa.sample_uniform_disk(n, seed)),
):
    ok, fraction = check_independent_support(data, 10)
    print(f"  {name:14s} -> {'PASS' if ok else 'FAIL'} "
          f"(fraction of product cells occupied: {fraction:.3f})")
