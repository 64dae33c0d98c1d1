"""Repository hygiene: no build artifacts tracked, packages complete.

An orphaned ``src/repro/serve/__pycache__/`` directory once shipped a
package whose *source* had been deleted — imports kept working locally
(Python happily loads the stale ``.pyc``) while every fresh checkout
broke.  These checks make that class of accident loud.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _tracked_files() -> list[str]:
    out = subprocess.run(
        ["git", "ls-files"], cwd=REPO_ROOT, check=True,
        capture_output=True, text=True,
    )
    return out.stdout.splitlines()


def test_no_tracked_build_artifacts():
    offenders = [
        path
        for path in _tracked_files()
        if "__pycache__" in path
        or path.endswith((".pyc", ".pyo", ".orig", ".rej"))
    ]
    assert not offenders, f"build artifacts under version control: {offenders}"


def test_every_package_directory_has_real_sources():
    """No package may exist only as cached bytecode."""
    src = REPO_ROOT / "src" / "repro"
    for directory in [src, *src.rglob("*/")]:
        directory = Path(directory)
        if directory.name == "__pycache__":
            continue
        sources = [
            p for p in directory.glob("*.py") if p.name != "__init__.py"
        ]
        has_init = (directory / "__init__.py").exists()
        subpackages = [
            d for d in directory.iterdir()
            if d.is_dir() and d.name != "__pycache__"
        ]
        assert has_init, f"{directory} lacks __init__.py"
        assert sources or subpackages, (
            f"{directory} has no Python sources — orphaned package?"
        )


def test_gitignore_covers_bytecode():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    assert "__pycache__" in gitignore


def test_cli_and_server_import_without_networkx():
    """networkx is imported only by ``CircuitGraph.to_networkx``: the
    CLI and the job server start without paying for it."""
    probe = (
        "import sys, repro.cli, repro.serve; "
        "sys.exit('networkx' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr or "networkx was imported"
