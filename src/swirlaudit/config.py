"""Run configuration: defaults, validation, and the flat key = value format.

Config files are plain text, one ``key = value`` per line; blank lines and
lines starting with ``#`` are ignored.  Unknown and duplicate keys are
errors (fail closed).  Missing keys fall back to the documented defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from swirlaudit.audits import AuditSettings
from swirlaudit.errors import ConfigError
from swirlaudit.transforms import Mixing2, MpaParams, integer_problem, real_problem, swirl_problems

__all__ = ["RunConfig", "load_config"]


def _parse_matrix(text: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated entries (row-major), got {len(parts)}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


_PARSERS = {
    "n": partial(int, base=0),
    "seed": partial(int, base=0),
    "a": float,
    "c": float,
    "A": _parse_matrix,
    "bins_support": partial(int, base=0),
    "bins_uniformity": partial(int, base=0),
    "bins_relation": partial(int, base=0),
    "functional_threshold": float,
    "alpha": float,
    "l_max": float,
    "output_dir": str,
}

# Config-file key -> RunConfig attribute.
_KEY_TO_FIELD = {key: ("mixing" if key == "A" else key) for key in _PARSERS}


@dataclass(frozen=True)
class RunConfig(AuditSettings):
    """Validated parameters for one experiment run, the audit's settings among them.

    ``mixing`` holds the four mixing-matrix entries row-major, as a tuple of
    ``float``.  The ``degenerate_a`` flag cannot be set from a config file; it
    exists so the identity-swirl negative control can be exercised from tests
    and the hidden CLI flag.
    """

    n: int = 100000
    seed: int = 42
    a: float = 3.6
    c: float = 0.9
    mixing: tuple[float, float, float, float] = (1.0, 0.5, 0.0, 1.0)
    output_dir: str = "out"
    degenerate_a: bool = False

    def _problems(self) -> list[str]:
        problems = [problem for key, lowest in (("n", 1), ("seed", 0))
                    if (problem := integer_problem(key, getattr(self, key), lowest))]
        if not isinstance(self.output_dir, (str, os.PathLike)):
            problems.append(f"output_dir: must be a str or os.PathLike, got {self.output_dir!r}")
        elif not os.fspath(self.output_dir):
            problems.append("output_dir: must not be empty")
        if not isinstance(self.degenerate_a, (bool, np.bool_)):
            problems.append(f"degenerate_a: must be a bool, got {self.degenerate_a!r}")
        problems += swirl_problems(self.a, self.c, self.degenerate_a)
        try:
            # the entries of bytes are ints: b"1234" would pass as (49, 50, 51, 52)
            if isinstance(self.mixing, (bytes, bytearray)) or any(
                    real_problem("A", entry) for entry in self.mixing):
                raise TypeError
            if len(self.mixing) != 4:
                raise ValueError(f"expected 4 entries (row-major), got {len(self.mixing)}")
            Mixing2.from_rows(*self.mixing)
        except TypeError:
            problems.append(f"A: must be a sequence of 4 real numbers, got {self.mixing!r}")
        except ValueError as exc:
            problems.append(f"A: {exc}")
        return problems + super()._problems()

    def mixing2(self) -> Mixing2:
        return Mixing2.from_rows(*self.mixing)

    def mpa_params(self) -> MpaParams:
        return MpaParams(a=self.a, c=self.c, degenerate=self.degenerate_a)

    def to_dict(self) -> dict:
        """The fields in config-key order, as ``report.json`` lists them, then ``degenerate_a``."""
        out = {name: getattr(self, name) for name in (*_KEY_TO_FIELD.values(), "degenerate_a")}
        out["mixing"] = list(self.mixing)
        return out


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a key = value config file.

    Every violation is reported with its key name; unknown keys, duplicate
    keys, and unparseable values are all errors.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None

    raw: dict[str, object] = {}
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            raw[key] = _PARSERS[key](value)
        except ValueError as exc:
            problems.append(f"line {lineno}: {key}: cannot parse {value!r} ({exc})")
    if problems:
        raise ConfigError(f"invalid config file {path}:\n  " + "\n  ".join(problems))

    kwargs = {_KEY_TO_FIELD[key]: value for key, value in raw.items()}
    return RunConfig(**kwargs)
