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
import re
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


@pytest.mark.skipif(
    not (REPO_ROOT / ".git").exists(),
    reason="not a git checkout: no tracked files to inspect",
)
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


def _parsed_sources(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(REPO_ROOT), ast.parse(path.read_text())


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds in its module."""
    return [
        alias.asname or alias.name.split(".")[0]
        for alias in node.names
        if alias.name != "*"
    ]


def _top_level_imports(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            yield node


def test_declared_dependencies_match_imports():
    """Every third-party package ``src/`` imports, at module top or
    inside a function, is a declared dependency, and every declared
    dependency is imported."""
    # Read with a regex: tomllib is Python 3.11+, the project supports 3.10.
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    specs = re.search(r"^dependencies = (\[.*?\])", pyproject, re.M | re.S)
    declared = {
        re.split(r"[<>=!~\[ ;]", spec, maxsplit=1)[0].lower()
        for spec in ast.literal_eval(specs.group(1))
    }
    roots = set()
    for _, tree in _parsed_sources(REPO_ROOT / "src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots.add(node.module.split(".")[0])
    third_party = roots - set(sys.stdlib_module_names) - {"repro"}
    assert third_party == declared


def _dunder_all(tree: ast.Module) -> set[str]:
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def _names_used(tree: ast.Module) -> set[str]:
    """Every name a module reads, including those inside string
    annotations and the strings of its ``__all__``."""
    annotations = [
        getattr(node, attr)
        for node in ast.walk(tree)
        for attr in ("returns", "annotation")
        if getattr(node, attr, None) is not None
    ]
    quoted = [
        ast.parse(part.value, mode="eval")
        for annotation in annotations
        for part in ast.walk(annotation)
        if isinstance(part, ast.Constant) and isinstance(part.value, str)
    ]
    return _dunder_all(tree) | {
        node.id
        for root in [tree, *quoted]
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }


def test_no_unused_module_imports():
    """A module imports only what it uses (``__init__.py`` re-exports
    are checked against ``__all__`` below)."""
    offenders = [
        f"{path}:{node.lineno} {name}"
        for path, tree in _parsed_sources(REPO_ROOT / "src" / "repro")
        if path.name != "__init__.py"
        for used in [_names_used(tree)]
        for node in _top_level_imports(tree)
        for name in _bound_names(node)
        if name not in used
    ]
    assert not offenders, offenders


def test_package_all_lists_its_public_imports():
    """A package's ``__init__.py`` imports a public name only to export
    it, so ``__all__`` names it."""
    offenders = [
        f"{path}:{node.lineno} {name}"
        for path, tree in _parsed_sources(REPO_ROOT / "src" / "repro")
        if path.name == "__init__.py"
        for exported in [_dunder_all(tree)]
        for node in _top_level_imports(tree)
        for name in _bound_names(node)
        if not name.startswith("_") and name not in exported
    ]
    assert not offenders, offenders


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
