"""Construct a measure-preserving swirl of uniform 2-D latents and audit
identifiability assumptions on the resulting pair of representations.

The package has three layers:

* :mod:`swirlaudit.transforms` — the generative pipeline (uniform square
  sampling, invertible linear mixing, radius-dependent rotation with an
  exact analytic inverse).
* :mod:`swirlaudit.audits` — sample-level checks of continuity, mutual
  reconstruction, compact support, independent support, uniformity, and the
  coordinate-wise-relation conclusion, bundled by :func:`run_audit`.
* :mod:`swirlaudit.cli` / :mod:`swirlaudit.figures` /
  :mod:`swirlaudit.reporting` — the experiment runner: config files, CSV
  point clouds, swirl profiles, SVG scatters, and JSON reports.
"""

from swirlaudit.audits import (
    AuditReport,
    AuditSettings,
    CoordRelationVerdict,
    check_coordinatewise_relation,
    check_compact_support,
    check_continuity,
    check_independent_support,
    check_sigma_algebra_proxy,
    check_uniformity,
    run_audit,
)
from swirlaudit.config import RunConfig, load_config
from swirlaudit.transforms import (
    Dataset,
    Mixing2,
    MpaParams,
    apply_pipeline,
    jacobian_det_fd,
    mix,
    mpa_forward,
    mpa_inverse,
    sample_uniform_disk,
    sample_uniform_square,
    unmix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # transforms
    "Dataset",
    "Mixing2",
    "MpaParams",
    "sample_uniform_square",
    "sample_uniform_disk",
    "mix",
    "unmix",
    "mpa_forward",
    "mpa_inverse",
    "apply_pipeline",
    "jacobian_det_fd",
    # audits
    "AuditReport",
    "AuditSettings",
    "CoordRelationVerdict",
    "check_continuity",
    "check_sigma_algebra_proxy",
    "check_compact_support",
    "check_independent_support",
    "check_uniformity",
    "check_coordinatewise_relation",
    "run_audit",
    # experiment runner
    "RunConfig",
    "load_config",
]
