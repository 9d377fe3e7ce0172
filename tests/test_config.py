"""Tests for the flat key = value configuration format."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swirlaudit.audits import AuditSettings, audit_pair, generate
from swirlaudit.config import RunConfig, load_config
from swirlaudit.errors import ConfigError
from swirlaudit.reporting import build_report, write_report_json
from swirlaudit.transforms import Mixing2, MpaParams


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_empty_file_gives_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg == RunConfig()
    assert (cfg.n, cfg.seed, cfg.a, cfg.c) == (100_000, 42, 3.6, 0.9)
    assert cfg.mixing == (1.0, 0.5, 0.0, 1.0)


def test_comments_and_blank_lines_ignored(tmp_path):
    cfg = load_config(write(tmp_path, "# comment\n\nn = 5000\nseed = 9\n"))
    assert cfg.n == 5000 and cfg.seed == 9


def test_matrix_key_row_major(tmp_path):
    cfg = load_config(write(tmp_path, "A = 2, 0, 0, 0.5\n"))
    assert cfg.mixing == (2.0, 0.0, 0.0, 0.5)
    assert cfg.mixing2().det == pytest.approx(1.0)


def test_cutoff_out_of_range_names_key(tmp_path):
    with pytest.raises(ConfigError, match=r"c: .*\(0, 1\)"):
        load_config(write(tmp_path, "c = 1.5\n"))


def test_zero_rotation_rate_names_key(tmp_path):
    with pytest.raises(ConfigError, match="a: must be nonzero"):
        load_config(write(tmp_path, "a = 0\n"))


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_l_max_names_key(tmp_path, value):
    with pytest.raises(ConfigError, match=f"l_max: must be positive and finite, got {value}"):
        load_config(write(tmp_path, f"l_max = {value}\n"))


def test_byte_order_mark_is_skipped(tmp_path):
    # editors may save one; it is no part of the first key
    path = tmp_path / "run.cfg"
    path.write_bytes("\ufeffn = 5000\nseed = 3\n".encode("utf-8"))
    assert load_config(path) == RunConfig(n=5000, seed=3)


def test_unknown_key_fails_closed(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'bins'"):
        load_config(write(tmp_path, "bins = 10\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(write(tmp_path, "n = 10\nn = 20\n"))


def test_unparseable_value_reports_line(tmp_path):
    with pytest.raises(ConfigError, match="line 1: n"):
        load_config(write(tmp_path, "n = ten\n"))


def test_singular_matrix_rejected(tmp_path):
    with pytest.raises(ConfigError, match="A: "):
        load_config(write(tmp_path, "A = 1, 1, 1, 1\n"))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_all_violations_reported_together(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, "c = 2\nalpha = 3\nn = 0\n"))
    message = str(exc.value)
    assert "c:" in message and "alpha:" in message and "n:" in message


@pytest.mark.parametrize("text, prefix", [
    ("A = 1, 0, 1\n", "line 1: A:"),  # three matrix entries
    ("n 5\n", "line 1:"),  # no '='
    ("seed = -1\n", "seed:"),
    ("a = inf\n", "a, c:"),
    ("output_dir =\n", "output_dir: must not be empty"),  # unlike ".", a slip
])
def test_refused_config_line_names_its_key(tmp_path, text, prefix):
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, text))
    assert f"\n  {prefix}" in str(exc.value)


@pytest.mark.parametrize("kwargs, key", [
    ({"n": 20000.5}, "n"),  # was sampled as 20000 and reported as 20000.5
    ({"seed": 1.5}, "seed"),
    ({"n": "5"}, "n"),
    ({"a": "3.6"}, "a"),
    ({"c": "0.9"}, "c"),
    ({"n": True}, "n"),
    ({"output_dir": 5}, "output_dir"),
    ({"degenerate_a": 1, "a": 0.0}, "degenerate_a"),  # was accepted and written as 1
    ({"mixing": 5}, "A"),  # raised a bare TypeError from len
    # each of these was stored as numbers: b"1234" as (49.0, 50.0, 51.0, 52.0), True as 1.0
    ({"mixing": b"1234"}, "A"),
    ({"mixing": "1234"}, "A"),
    ({"mixing": ("1", "0.5", "0", "1")}, "A"),
    ({"mixing": (1.0, True, 0.0, 1.0)}, "A"),
    ({"l_max": True}, "l_max"),
    ({"alpha": False}, "alpha"),
    ({"functional_threshold": "0.01"}, "functional_threshold"),
    ({"a": True}, "a"),
    ({"c": True}, "c"),
])
def test_run_config_refuses_what_is_no_integer_or_real_by_key(kwargs, key):
    with pytest.raises(ConfigError, match=rf"^invalid configuration:\n  {key}: must be "):
        RunConfig(**kwargs)


def test_numpy_scalars_are_stored_as_python_numbers(tmp_path):
    # numpy scalars pass the rules, but the json module cannot write them
    cfg = RunConfig(n=np.int64(3000), seed=np.int64(5), a=np.float32(3.6),
                    alpha=np.float32(0.001), bins_support=np.int64(10),
                    bins_uniformity=np.int64(10), bins_relation=np.int64(50),
                    mixing=[np.int64(1), np.float32(0.5), 0, 1])
    A, p = cfg.mixing2(), cfg.mpa_params()
    Z, X, Zp = generate(A, p, cfg.n, cfg.seed)
    report = audit_pair(Z, Zp, maps=(A, p, X), settings=cfg)
    path = tmp_path / "report.json"
    write_report_json(path, build_report(report, cfg.to_dict()))
    assert json.loads(path.read_text(encoding="utf-8"))["parameters"]["n"] == 3000
    for name in ("n", "seed", "bins_support", "bins_uniformity", "bins_relation"):
        assert type(getattr(cfg, name)) is int
    for name in ("a", "c", "functional_threshold", "alpha", "l_max"):
        assert type(getattr(cfg, name)) is float
    assert cfg.mixing == (1.0, 0.5, 0.0, 1.0)
    assert [type(entry) for entry in cfg.mixing] == [float] * 4
    settings = AuditSettings(bins_support=np.int64(10), l_max=100)
    assert (type(settings.bins_support), type(settings.l_max)) == (int, float)
    cfg = RunConfig(output_dir=Path("d"), degenerate_a=np.bool_(True), a=0.0)
    written = json.dumps(cfg.to_dict())
    assert '"output_dir": "d"' in written and '"degenerate_a": true' in written


def test_mixing_needs_four_entries():
    with pytest.raises(ConfigError, match=r"^invalid configuration:\n  A: expected 4 entries "
                                          r"\(row-major\), got 3$"):
        RunConfig(mixing=(1, 0.5, 0))


def test_degenerate_flag_requires_zero_rate():
    # the audit would run the identity swirl while the report's parameters say a = 3.6
    with pytest.raises(ConfigError, match=r"a: degenerate_a requires a = 0, got 3.6"):
        RunConfig(degenerate_a=True)
    cfg = RunConfig(degenerate_a=True, a=0.0)
    assert cfg.mpa_params() == MpaParams.degenerate_fixture(cfg.c)


def test_degenerate_flag_not_a_config_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "degenerate_a = true\n"))


def _nonsingular(entries):
    try:
        Mixing2.from_rows(*entries)
    except ValueError:
        return False
    return True


def config_text(cfg):
    """``cfg`` as a config file: floats by ``repr``, ``mixing`` as ``A``."""
    lines = []
    for key, value in cfg.to_dict().items():
        if key == "degenerate_a":
            continue  # not a config key
        if key == "mixing":
            key, value = "A", ", ".join(map(repr, value))
        lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"


_open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_bins = st.integers(2, 10_000)

valid_configs = st.builds(
    RunConfig,
    n=st.integers(1, 2**63),
    seed=st.integers(0, 2**64 - 1),
    a=st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0),
    c=_open_unit,
    mixing=st.tuples(*[st.floats(-1e3, 1e3)] * 4).filter(_nonsingular),
    bins_support=_bins,
    bins_uniformity=_bins,
    bins_relation=_bins,
    functional_threshold=_open_unit,
    alpha=_open_unit,
    l_max=st.floats(0.0, exclude_min=True, allow_infinity=False),
    output_dir=st.text(st.characters(categories=("L", "N")) | st.sampled_from("/._- "))
    .map(str.strip).filter(bool),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=valid_configs)
def test_config_file_round_trip(tmp_path, cfg):
    assert load_config(write(tmp_path, config_text(cfg))) == cfg
