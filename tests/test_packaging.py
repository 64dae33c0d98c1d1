"""Repository hygiene: no build artifacts tracked, packages complete,
and every tool and example runs from a plain checkout.

An orphaned ``src/repro/serve/__pycache__/`` directory once shipped a
package whose *source* had been deleted — imports kept working locally
(Python happily loads the stale ``.pyc``) while every fresh checkout
broke.  These checks make that class of accident loud.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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



def _parsed_sources(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(REPO_ROOT), ast.parse(path.read_text())


def test_no_module_imports_another_modules_private_names():
    """An underscore-prefixed name is its module's own: a module that
    needs one from elsewhere is a module split along the wrong line."""
    offenders = [
        f"{path}:{node.lineno} {alias.name} from {node.module}"
        for path, tree in _parsed_sources(REPO_ROOT / "src" / "repro")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "repro")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not offenders, offenders


def test_process_backend_imports_only_at_module_top():
    """Imports under ``repro.warped.parallel`` run one way (backend ->
    ring -> worker -> loop) at import time; an import inside a function
    is how a cycle hides."""
    offenders = [
        f"{path}:{node.lineno} in {func.name}"
        for path, tree in _parsed_sources(
            REPO_ROOT / "src" / "repro" / "warped" / "parallel"
        )
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not offenders, offenders

def _without_pythonpath() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


@pytest.mark.parametrize(
    "tool",
    sorted(p.name for p in (REPO_ROOT / "tools").glob("[!_]*.py")),
)
def test_tool_runs_from_a_checkout(tool, tmp_path):
    """``python tools/<tool>.py`` works as the docstrings show it: no
    installed package and no ``PYTHONPATH`` needed."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / tool), "--help"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=_without_pythonpath(),
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "example", sorted(p.name for p in (REPO_ROOT / "examples").glob("*.py")),
)
def test_example_runs(example, tmp_path):
    """Every example runs to completion (each takes about a second)."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / example)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={
            **_without_pythonpath(),
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "TMPDIR": str(tmp_path),
        },
    )
    assert result.returncode == 0, result.stderr
