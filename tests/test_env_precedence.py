"""Env-override precedence: every ``REPRO_*`` knob, both directions.

The contract (the bug this pins down was its violation): the
environment only supplies *defaults* — an explicit keyword override
(CLI flag, served job config) always wins, uniformly across every
knob.  The specific knobs ``REPRO_SCALE``/``REPRO_CYCLES`` also beat
the blanket ``REPRO_FULL``.  The set of knobs itself is pinned to the
README's "Environment variables" table.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.harness.config import ExperimentConfig

REPO_ROOT = Path(__file__).resolve().parents[1]

#: (env var, env value, config field, parsed value, explicit override)
KNOBS = [
    ("REPRO_SCALE", "0.5", "scale", 0.5, 0.25),
    ("REPRO_CYCLES", "120", "num_cycles", 120, 30),
    ("REPRO_REPS", "3", "repetitions", 3, 2),
    ("REPRO_TW_TRANSPORT", "shm", "transport", "shm", "queue"),
]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """No ambient REPRO_* state may leak into these tests."""
    for name, *_ in KNOBS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.delenv("REPRO_FULL", raising=False)


@pytest.mark.parametrize(
    "env_name,env_value,field,parsed,override", KNOBS,
    ids=[knob[0] for knob in KNOBS],
)
def test_env_supplies_default_and_override_wins(
    monkeypatch, env_name, env_value, field, parsed, override
):
    monkeypatch.setenv(env_name, env_value)
    assert getattr(ExperimentConfig.from_env(), field) == parsed
    explicit = ExperimentConfig.from_env(**{field: override})
    assert getattr(explicit, field) == override


def test_metrics_flag():
    """Metrics are off unless asked for (``--metrics``)."""
    assert ExperimentConfig.from_env().metrics_enabled is False
    assert ExperimentConfig.from_env(metrics_enabled=True).metrics_enabled


def test_full_sets_paper_scale_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_FULL", "1")
    config = ExperimentConfig.from_env()
    assert (config.scale, config.num_cycles) == (1.0, 400)


def test_specific_env_knobs_beat_repro_full(monkeypatch):
    """The precedence bug: REPRO_FULL used to clobber REPRO_SCALE."""
    monkeypatch.setenv("REPRO_FULL", "1")
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    monkeypatch.setenv("REPRO_CYCLES", "120")
    config = ExperimentConfig.from_env()
    assert (config.scale, config.num_cycles) == (0.5, 120)


def test_explicit_overrides_beat_repro_full(monkeypatch):
    monkeypatch.setenv("REPRO_FULL", "1")
    config = ExperimentConfig.from_env(scale=0.25, num_cycles=40)
    assert (config.scale, config.num_cycles) == (0.25, 40)


def test_every_documented_knob_is_covered():
    """The KNOBS table must track the module docstring's knob list."""
    import repro.harness.config as config_mod

    documented = {
        word.strip("`;,.():").split("=")[0]
        for word in config_mod.__doc__.split()
        if word.strip("`;,.():").startswith("REPRO_")
    }
    covered = {name for name, *_ in KNOBS} | {"REPRO_FULL"}
    assert documented <= covered, documented - covered


def test_environment_surface_is_the_readme_table():
    """The ``REPRO_*`` names ``src/`` reads from the environment are
    exactly the rows of the README's "Environment variables" table, so
    a new variable cannot appear without being documented (and weighed
    against a CLI flag, which is the default way to add a setting)."""
    access = re.compile(
        r"""(?:environ(?:\.get)?[\[(]|getenv\()\s*["'](REPRO_[A-Z0-9_]+)"""
    )
    read = {
        name
        for path in (REPO_ROOT / "src").rglob("*.py")
        for name in access.findall(path.read_text())
    }
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("\n## Environment variables\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)`", section, re.M))
    assert read == documented, (
        f"read but not documented: {sorted(read - documented)}; "
        f"documented but not read: {sorted(documented - read)}"
    )
