"""Shared fixtures for the benchmark suite.

One session-scoped :class:`ExperimentRunner` backs every artifact
bench, so Table 2 and Figures 4-6 share their simulation runs exactly
as the paper's numbers come from one experiment campaign. Rendered
artifacts are also written to ``benchmarks/out/`` for inspection.

Scaling: benches run at the harness default (12% scale, 60 cycles)
unless overridden — ``REPRO_FULL=1`` runs paper-size circuits,
``REPRO_SCALE``/``REPRO_CYCLES`` set explicit values.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness.claims import evaluate
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentRunner

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner(ExperimentConfig.from_env())


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def save_artifact(directory: pathlib.Path, name: str, text: str) -> None:
    (directory / name).write_text(text + "\n")
    print(f"\n{text}\n")


def assert_claims(runner: ExperimentRunner, artifact: str) -> None:
    """Assert every claim of *artifact* (``repro.harness.claims``) that
    applies at the runner's scale."""
    verdicts = evaluate(runner, artifact)
    assert verdicts, f"no claim names {artifact!r}"
    failed = [v for v in verdicts if v.holds is False]
    assert not failed, "\n".join(
        f"{v.claim.id}: {v.claim.text} — {v.evidence}" for v in failed
    )
