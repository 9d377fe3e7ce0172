#!/usr/bin/env python3
# Audit every identifiability premise on the swirled construction, then test
# the conclusion: are Z and Z' related coordinate-wise?
#
# Expected outcome with a nonzero swirl rate: every premise passes, Z' looks
# uniform on the square, and the relation verdict is NOT coordinate-wise --
# the construction is a certified counterexample to identifiability up to
# permutation and coordinate-wise bijections.
import swirlaudit as sa

A = sa.Mixing2.from_rows(1.0, 0.5, 0.0, 1.0)
p = sa.MpaParams(a=3.6, c=0.9)

report = sa.run_audit(A, p, n=100_000, seed=42)

print("premise checks")
for premise in report.premises:
    print(f"  {premise.name:28s} statistic {premise.statistic:10.3g} "
          f"(threshold {premise.threshold:g})  {'PASS' if premise.passed else 'FAIL'}")
print(f"  uniformity of Z' (chi-square p = {report.uniformity_pvalue_zprime:.3f})")

print("\nconclusion check: coordinate-wise relation between Z and Z'?")
for scores in report.conclusion.assignments:
    print(f"  assignment {scores.perm}: scores Z'->Z {tuple(round(s, 4) for s in scores.zprime_to_z)}, "
          f"Z->Z' {tuple(round(s, 4) for s in scores.z_to_zprime)}")
print(f"  verdict: {report.conclusion.verdict} "
      f"(best max score {report.conclusion.best_max_score:.4f} vs threshold "
      f"{report.conclusion.threshold})")

print(f"\ncounterexample certified: {report.counterexample_certified}")

# The negative control: with the swirl switched off (a = 0) the two
# representations are identical, and the verdict flips to coordinate-wise.
control = sa.run_audit(A, sa.MpaParams.degenerate_fixture(0.9), n=100_000, seed=42)
print(f"control (a = 0): verdict = {control.conclusion.verdict}, "
      f"certified = {control.counterexample_certified}")
