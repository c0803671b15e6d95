"""Soundness checks are explicit raises, so they survive ``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hfree_mis

PACKAGE_DIR = Path(hfree_mis.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements vanish under python -O: {found}"


def test_internal_check_survives_optimize_flag():
    script = (
        "from hfree_mis.cograph import cograph_alpha\n"
        "from hfree_mis.errors import InternalCheckError\n"
        "from hfree_mis.graph import Graph\n"
        "Graph.is_independent_mask = lambda self, mask: False\n"
        "try:\n"
        "    cograph_alpha(Graph(3, [(0, 1)]))\n"
        "except InternalCheckError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
