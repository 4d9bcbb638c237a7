"""The demos run, and every name they import from ``kgned`` exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = DEMOS.parent / "src"
# 03 trains two models for minutes, so only its imports are checked.
FAST = ("01_triples_to_context.py", "02_input_layout.py", "04_endpoint_cache.py",
        "05_metrics_reports.py", "06_candidate_lookup.py")


@pytest.mark.parametrize("script", FAST)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_resolve(script):
    tree = ast.parse((DEMOS / script).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "kgned"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
