"""Each narrative script in demos/, the README's library tour and every
exported name work against the package, whose third-party imports are
its declared dependencies."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import boolham

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_every_exported_name_resolves():
    missing = [name for name in boolham.__all__ if not hasattr(boolham, name)]
    assert not missing
    # and every public name the package binds, other than its modules, is exported
    unlisted = [
        name for name, value in vars(boolham).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
        and name not in boolham.__all__
    ]
    assert not unlisted


def test_readme_python_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_third_party_imports_are_the_declared_dependencies():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies = \[(.*?)\]", pyproject, flags=re.M | re.S).group(1)
    # a requirement's name ends where its version specifier starts
    declared = {re.match(r"[\w.-]+", req).group().lower() for req in re.findall(r'"(.+?)"', listed)}
    imported = set()
    for source in (ROOT / "src" / "boolham").rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"boolham"} == declared
