"""One frozen run configuration, resolved once from the environment.

The paper's evaluation (Sec. 6) is a grid of attack × victim × dataset
runs.  Six ``REPRO_*`` variables configure how such a run executes —
where victims are cached, how many worker processes attack, whether
progress, journals and traces are on, and how densely traces sample.
:meth:`RunConfig.from_env` is the only code in :mod:`repro` that reads
the environment; every layer below it takes plain resolved values.
Each field declares its variable below; the README's "Run configuration"
table lists the defaults and valid values.

Precedence is explicit override, then variable, then default; an empty
variable counts as unset.  Every value is validated when the config is
built, and a bad one raises ``ValueError`` (``WorkerCountError`` for the
worker count) naming the variable it came from — or the field, for an
explicit value.  A worker count from the environment beyond
``os.cpu_count()`` is clamped with a ``RuntimeWarning``, because it
silently applies to every run; an explicit count is never clamped.
"""

from __future__ import annotations

import operator
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.eval.parallel import WorkerCountError

__all__ = ["RunConfig"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off", ""})


def _flag(value) -> bool:
    if isinstance(value, bool):
        return value
    word = value.strip().lower()
    if word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise ValueError(value)


def _positive_int(value) -> int:
    n = int(value) if isinstance(value, str) else operator.index(value)
    if n < 1:
        raise ValueError(value)
    return n


@dataclass(frozen=True)
class _Variable:
    name: str
    parse: Callable
    expects: str
    error: type[ValueError] = ValueError


def _setting(variable: _Variable, **default):
    return field(metadata={"variable": variable}, **default)


def _parse(variable: _Variable, label: str, value):
    try:
        return variable.parse(value)
    except (AttributeError, TypeError, ValueError):
        raise variable.error(f"{label} must be {variable.expects}, got {value!r}") from None


_PATH = "a directory path"


@dataclass(frozen=True)
class RunConfig:
    """How one experiment run executes; see the module docstring."""

    cache_dir: Path = _setting(
        _Variable("REPRO_CACHE_DIR", Path, _PATH), default_factory=lambda: Path.cwd() / ".cache"
    )
    n_workers: int = _setting(
        _Variable("REPRO_NUM_WORKERS", _positive_int, "a positive integer", WorkerCountError),
        default=1,
    )
    progress: bool = _setting(
        _Variable("REPRO_PROGRESS", _flag, "one of 1/true/yes/on or 0/false/no/off"),
        default=False,
    )
    journal_dir: Path | None = _setting(_Variable("REPRO_JOURNAL_DIR", Path, _PATH), default=None)
    trace_dir: Path | None = _setting(_Variable("REPRO_TRACE_DIR", Path, _PATH), default=None)
    trace_every_n: int = _setting(
        _Variable("REPRO_TRACE_EVERY_N", _positive_int, "a positive integer"), default=1
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # an optional feature left off
            object.__setattr__(self, f.name, _parse(f.metadata["variable"], f.name, value))

    @classmethod
    def from_env(cls, **overrides) -> RunConfig:
        """Resolve every field: ``overrides`` (``None`` = not given), then
        its ``REPRO_*`` variable, then the default."""
        settings = {f.name: f.metadata["variable"] for f in fields(cls)}
        unknown = sorted(set(overrides) - set(settings))
        if unknown:
            raise TypeError(f"unknown RunConfig fields {unknown}; choose from {sorted(settings)}")
        values = {}
        for name, variable in settings.items():
            if overrides.get(name) is not None:
                values[name] = overrides[name]
                continue
            raw = os.environ.get(variable.name, "").strip()
            if raw:
                values[name] = _parse(variable, variable.name, raw)
        cpus = os.cpu_count() or 1
        if overrides.get("n_workers") is None and values.get("n_workers", 1) > cpus:
            warnings.warn(
                f"REPRO_NUM_WORKERS={values['n_workers']} exceeds os.cpu_count()={cpus}; "
                f"clamping to {cpus} workers",
                RuntimeWarning,
                stacklevel=2,
            )
            values["n_workers"] = cpus
        return cls(**values)
