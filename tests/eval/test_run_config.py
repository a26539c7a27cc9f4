"""RunConfig: the one place the ``REPRO_*`` environment is read and validated."""

import dataclasses
from pathlib import Path

import pytest

from repro.eval import parallel
from repro.eval.parallel import ParallelAttackRunner
from repro.eval.run_config import RunConfig
from repro.experiments.common import ExperimentContext

#: field -> the variable it reads; the documented contract, spelled out
VARIABLES = {
    "cache_dir": "REPRO_CACHE_DIR",
    "n_workers": "REPRO_NUM_WORKERS",
    "progress": "REPRO_PROGRESS",
    "journal_dir": "REPRO_JOURNAL_DIR",
    "trace_dir": "REPRO_TRACE_DIR",
    "trace_every_n": "REPRO_TRACE_EVERY_N",
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    # the suite itself may run under REPRO_NUM_WORKERS=2
    for variable in VARIABLES.values():
        monkeypatch.delenv(variable, raising=False)


def test_one_field_per_variable():
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert fields == list(VARIABLES)
    assert [f.metadata["variable"].name for f in dataclasses.fields(RunConfig)] == list(
        VARIABLES.values()
    )


def test_unset_environment_gives_the_defaults():
    run = RunConfig.from_env()
    assert run == RunConfig()
    assert run.cache_dir == Path.cwd() / ".cache"
    assert run.n_workers == 1
    assert run.progress is False
    assert run.journal_dir is None and run.trace_dir is None
    assert run.trace_every_n == 1


@pytest.mark.parametrize(
    "field, raw, expected",
    [
        ("cache_dir", "some/cache", Path("some/cache")),
        ("journal_dir", "runs", Path("runs")),
        ("trace_dir", " traces ", Path("traces")),
    ],
)
def test_variable_fills_its_field(monkeypatch, field, raw, expected):
    monkeypatch.setenv(VARIABLES[field], raw)
    assert getattr(RunConfig.from_env(), field) == expected


@pytest.mark.parametrize(
    "field, raw, override",
    [
        ("cache_dir", "env/cache", Path("explicit/cache")),
        ("progress", "1", False),
        ("journal_dir", "env/runs", Path("explicit/runs")),
        ("trace_dir", "env/traces", Path("explicit/traces")),
        ("trace_every_n", "5", 2),
    ],
)
def test_explicit_override_beats_the_variable(monkeypatch, field, raw, override):
    monkeypatch.setenv(VARIABLES[field], raw)
    assert getattr(RunConfig.from_env(**{field: override}), field) == override


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("1", True), ("true", True), ("YES", True), (" on ", True),
        # "0" used to switch the printer on: any non-empty string counted
        ("0", False), ("false", False), ("No", False), ("off", False), ("", False),
    ],
)
def test_progress_flag_words(monkeypatch, raw, expected):
    monkeypatch.setenv("REPRO_PROGRESS", raw)
    assert RunConfig.from_env().progress is expected


#: every one of these used to be accepted (and spin, crash or fail at
#: bind later) or to fail with an error that did not name the variable
BAD_ENV = [
    ("REPRO_PROGRESS", "maybe"),
    ("REPRO_PROGRESS", "2"),
    ("REPRO_TRACE_EVERY_N", "abc"),
    ("REPRO_TRACE_EVERY_N", "0"),
    ("REPRO_TRACE_EVERY_N", "1.5"),
]


@pytest.mark.parametrize("variable, raw", BAD_ENV)
def test_bad_variable_is_rejected_by_name(monkeypatch, variable, raw):
    monkeypatch.setenv(variable, raw)
    with pytest.raises(ValueError) as excinfo:
        RunConfig.from_env()
    assert str(excinfo.value).startswith(f"{variable} must be ")
    assert str(excinfo.value).endswith(f"got {raw!r}")


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_workers", 0),
        ("n_workers", 2.5),
        ("progress", "maybe"),
        ("trace_every_n", 0),
    ],
)
def test_bad_explicit_value_is_rejected_by_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        RunConfig(**{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be "):
        RunConfig.from_env(**{field: value})


def test_unknown_override_is_a_type_error():
    with pytest.raises(TypeError, match="n_worker"):
        RunConfig.from_env(n_worker=2)


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().n_workers = 2


def test_runner_is_serial_without_fork(monkeypatch):
    monkeypatch.setattr(parallel, "fork_available", lambda: False)
    assert ParallelAttackRunner(attack=None, n_workers=4).n_workers == 1


def test_context_resolves_once_from_overrides_and_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    context = ExperimentContext(cache_dir=tmp_path / "cache", n_workers=2)
    assert context.run == RunConfig(
        cache_dir=tmp_path / "cache", n_workers=2, trace_dir=tmp_path / "traces"
    )
    assert context.trace_path("cell") == tmp_path / "traces" / "cell"
    assert context.journal_path("cell") is None
