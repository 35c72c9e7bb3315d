"""Every third-party module the package imports comes from a distribution
that ``pyproject.toml`` declares in ``dependencies``, so an install of csfm
alone can run it; test-only tools (networkx, scipy) stay out of ``src``."""
import ast
import os
import re
import subprocess
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _imported_modules() -> dict:
    """Top-level module name -> the first file under ``src/csfm`` importing it."""
    found = {}
    for path in sorted((ROOT / "src" / "csfm").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], path.name)
    return found


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        _normalized(re.match(r"[A-Za-z0-9_.-]+", req).group()) for req in project["dependencies"]
    }
    distributions = packages_distributions()
    third_party = {
        module: where
        for module, where in _imported_modules().items()
        if module not in sys.stdlib_module_names and module != "csfm"
    }
    assert {"numpy", "orjson"} <= set(third_party)
    undeclared = {
        module: where
        for module, where in third_party.items()
        if not declared & {_normalized(d) for d in distributions.get(module, [module])}
    }
    assert undeclared == {}
    assert "networkx" not in third_party
    assert "scipy" not in third_party


def test_importing_the_entry_points_loads_no_scipy():
    # scipy costs about 0.25 s and 39 MiB per process to import; no csfm
    # module may pull it in, directly or through another package
    script = (
        "import sys\n"
        "import csfm.cli, csfm.pipeline, csfm.synth\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split("\n")[-2] == "[]"
