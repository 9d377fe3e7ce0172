"""Command-line interface: ``run``, ``figures``, and ``audit-external``.

Exit codes
----------
0   success (for ``run``: the counterexample was certified)
2   ``run`` completed but did not certify a counterexample
3   configuration or parameter validation error
4   I/O failure
5   malformed or mismatched input data
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Iterator

from swirlaudit import __version__
from swirlaudit.audits import AuditSettings, audit_pair, bounding_box, sample_floor_misses
from swirlaudit.config import RunConfig, load_config
from swirlaudit.errors import ConfigError, SwirlAuditError
from swirlaudit.figures import render_scatter_svg, swirl_profile
from swirlaudit.reporting import (
    build_report,
    load_external_cloud,
    write_cloud_csv,
    write_profile_csv,
    write_report_json,
)
from swirlaudit.transforms import (LATENT_Z, LATENT_ZPRIME, OBSERVED_X, Dataset, apply_pipeline,
                                   sample_uniform_square)

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_DATA = 5


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    sampled = argparse.ArgumentParser(add_help=False, parents=[common])
    sampled.add_argument("--seed", type=int, metavar="U64", help="seed (overrides config)")
    sampled.add_argument("--render", action="store_true",
                         help="also emit SVG scatters of the point clouds")

    parser = argparse.ArgumentParser(
        prog="swirlaudit",
        description="Generate the swirled-latent construction and audit "
                    "identifiability assumptions on it.",
    )
    parser.add_argument("--version", action="version", version=f"swirlaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[sampled],
                           help="run the pipeline plus the full audit")
    run_p.add_argument("--degenerate-a", action="store_true", help=argparse.SUPPRESS)
    sub.add_parser("figures", parents=[sampled], help="emit point clouds and the swirl profile")

    ext_p = sub.add_parser("audit-external", parents=[common],
                           help="audit two user-supplied paired point clouds")
    ext_p.add_argument("z_csv", help="CSV point cloud of the reference representation")
    ext_p.add_argument("zprime_csv", help="CSV point cloud of the alternate representation")
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if getattr(args, "degenerate_a", False):
        overrides["degenerate_a"] = True
        overrides["a"] = 0.0
    return replace(cfg, **overrides)


def _check_sample_size(cfg: RunConfig) -> None:
    """Reject an ``n`` too small for the audit's bins before any work starts.

    ``figures`` runs no audit, so this belongs to ``run`` and not to
    :class:`RunConfig`.
    """
    problems = [
        f"n: must be >= {required} for {key} = {getattr(cfg, key)}, got {cfg.n}"
        for _, key, required in sample_floor_misses(cfg.n, vars(cfg))
    ]
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


def _drop_stale_report(cfg: RunConfig) -> None:
    """Remove an earlier report, so that none is left beside outputs it does not describe."""
    (Path(cfg.output_dir) / "report.json").unlink(missing_ok=True)


def _write_cloud(path: Path, points, header: str, svg: tuple | None) -> None:
    """Write one cloud, then its SVG scatter when ``svg`` is ``(path, axis_range, title)``."""
    write_cloud_csv(path, points, header=header)
    if svg is not None:
        render_scatter_svg(points, *svg)


def _write_cloud_or_exit(*job) -> None:
    """Body of a cloud-writer child: :func:`_write_cloud`, exit ``EXIT_IO`` on an I/O error."""
    try:
        _write_cloud(*job)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_IO)


_CLOUD_FILES = {LATENT_Z: ("z", "z1,z2", "sources Z"),
                OBSERVED_X: ("x", "x1,x2", "observations X"),
                LATENT_ZPRIME: ("zprime", "z1,z2", "alternate sources Z'")}


@contextmanager
def _emit_bundle(cfg: RunConfig, render: bool) -> Iterator[tuple[Path, Callable[[Dataset], None]]]:
    """Make the output directory; yield it and ``write(D)``, which starts writing the cloud
    ``D`` (file, header and title by ``D.label``) while the ``with`` body goes on.

    Where the platform can fork, ``write`` forks a child that formats and writes the cloud,
    then renders it to SVG if asked; it inherits the points instead of a pickled copy.  The
    body calls it with no thread alive.  Elsewhere ``write`` writes the cloud (and SVG)
    before it returns.  The children are joined however the body ends; a child that failed
    raises :class:`OSError` naming its files, so no report is written after it.
    """
    import multiprocessing  # here, so that importing the CLI stays fast

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    writers = []

    def write(D: Dataset) -> None:
        stem, header, title = _CLOUD_FILES[D.label]
        span = 1.05
        if render and D.label == OBSERVED_X:  # the largest |x|, from no temporary the size of X
            lo, hi = bounding_box(D.points).T
            span = float(max(1.0, -lo.min(), hi.max())) * 1.05
        svg = (out / f"{stem}.svg", (-span, span), title) if render else None
        job = (out / f"{stem}.csv", D.points, header, svg)
        if not can_fork:
            return _write_cloud(*job)
        writer = multiprocessing.get_context("fork").Process(
            target=_write_cloud_or_exit, args=job,
            name=f"{job[0]} or {svg[0]}" if render else str(job[0]))
        writer.start()
        writers.append(writer)

    try:
        yield out, write
    finally:
        for writer in writers:
            writer.join()
    failed = [f"{w.name} (writer exit code {w.exitcode})" for w in writers if w.exitcode != 0]
    if failed:
        raise OSError(f"could not write {', '.join(failed)}")


def _make_bundle(A, p, cfg: RunConfig, out: Path, write) -> tuple[Dataset, Dataset, Dataset]:
    """Return ``generate(A, p, cfg.n, cfg.seed)``, each cloud written as made, and the profile."""
    Z = sample_uniform_square(cfg.n, cfg.seed)
    write(Z)  # its writer takes the idle core while the mixing and the swirl run
    X, Zp = apply_pipeline(A, p, Z)
    write(X)
    write(Zp)
    write_profile_csv(out / "swirl_profile.csv", swirl_profile(Z, Zp))
    return Z, X, Zp


def _write_report(out: Path, report, parameters: dict) -> None:
    """Write ``report`` with ``parameters`` to ``out/report.json`` and print its summary."""
    document = build_report(report, parameters)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(out / "report.json", document)
    for entry in document["premises"]:
        status = {True: "PASS", False: "FAIL", None: "SKIPPED"}[entry["pass"]]
        print(f"premise {entry['name']:28s} {status}")
    print(f"uniformity p-value             {document['uniformity_pvalue']:.6g}")
    print(f"relation verdict               {document['relation']['verdict']}")
    print(f"counterexample certified       {document['counterexample_certified']}")


def _not_certified_category(report, degenerate: bool) -> str:
    if not report.premises_pass:
        return "premise-failure"
    if not report.uniformity_pass:
        return "uniformity-failure"
    return "degenerate-coordinate-wise" if degenerate else "conclusion-coordinate-wise"


def _cmd_run(cfg: RunConfig, render: bool) -> int:
    _check_sample_size(cfg)
    A, p = cfg.mixing2(), cfg.mpa_params()
    with _emit_bundle(cfg, render) as (out, write):
        Z, X, Zp = _make_bundle(A, p, cfg, out, write)
        report = audit_pair(Z, Zp, maps=(A, p, X), settings=cfg)
    _write_report(out, report, cfg.to_dict())
    if report.counterexample_certified:
        return EXIT_OK
    category = _not_certified_category(report, cfg.degenerate_a)
    print(f"not certified: {category}", file=sys.stderr)
    return EXIT_NOT_CERTIFIED


def _cmd_figures(cfg: RunConfig, render: bool) -> int:
    with _emit_bundle(cfg, render) as (out, write):
        _make_bundle(cfg.mixing2(), cfg.mpa_params(), cfg, out, write)
    print(f"figure bundle written to {out}")
    return EXIT_OK


def _cmd_audit_external(cfg: RunConfig, z_path: str, zp_path: str) -> int:
    Z = load_external_cloud(z_path, LATENT_Z)
    Zp = load_external_cloud(zp_path, LATENT_ZPRIME)
    report = audit_pair(Z, Zp, settings=cfg)
    # l_max bounds the continuity sweep, which external clouds do not get
    settings = {f.name: getattr(cfg, f.name) for f in fields(AuditSettings) if f.name != "l_max"}
    parameters = {"z_csv": str(z_path), "zprime_csv": str(zp_path), "n": Z.n, **settings}
    _write_report(Path(cfg.output_dir), report, parameters)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        _drop_stale_report(cfg)
        if args.command == "run":
            return _cmd_run(cfg, render=args.render)
        if args.command == "figures":
            return _cmd_figures(cfg, render=args.render)
        return _cmd_audit_external(cfg, args.z_csv, args.zprime_csv)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SwirlAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry_point() -> None:
    sys.exit(main())
