"""Soundness checks are explicit raises, so they survive ``python -O``,
every witness passes ``Graph.checked_witness`` (other independence tests
only at ``INDEPENDENCE_TEST_SITES``), vertex subsets are masks of the graph at hand, not relabelled copies (the
kernels and the Turing drivers included; copies are made only at the three
sites of ``RELABELLING_SITES``), a complement is read through
``Graph.co_components`` rather than built (``complement`` is called only at
the site of ``COMPLEMENT_SITES``), every public entry that takes a caller's
``mask`` checks it with ``Graph.vertex_mask`` (exemptions in
``UNCHECKED_MASK_ENTRIES``), and every budget defaults to
``oracle.DEFAULT_BUDGET``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hfree_mis
from hfree_mis.cluster import solve_cluster_free
from hfree_mis.cograph import cograph_decompose, find_p4
from hfree_mis.graph import Graph
from hfree_mis.oracle import (
    enumerate_independent_sets,
    greedy_clique_cover,
    greedy_independent_set,
)
from hfree_mis.ramsey import eh_extract, ramsey_extract

PACKAGE_DIR = Path(hfree_mis.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements vanish under python -O: {found}"


# (module, enclosing function) allowed to make a relabelled copy
RELABELLING_SITES = {
    ("iterexp", "solve_within"),          # the expansion driver's memo key
    ("classify", "join_factors"),         # the factors it returns
    ("cli", "cmd_kernel"),                # the kernel's graph files
}


# (module, enclosing function) allowed to build a whole complement: the
# pattern search's dense order reads every complement row of H
COMPLEMENT_SITES = {
    ("induced", "_plan"),
}


def _calls(tree: ast.AST, name: str):
    """(enclosing function name, line) of every call of ``name``, as a
    method (``<graph>.name(...)``) or a plain function."""
    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None),
                                                   getattr(node.func, "id", None)):
            yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)
    return walk(tree, None)


def _calls_outside(name: str, sites: set[tuple[str, str]]) -> list[str]:
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} in {func}" for func, line in _calls(tree, name)
                  if (path.stem, func) not in sites]
    return found


def test_relabelling_sites():
    found = _calls_outside("induced", RELABELLING_SITES)
    assert found == [], f"relabelled copies outside the allowed sites: {found}"


def test_complement_sites():
    found = _calls_outside("complement", COMPLEMENT_SITES)
    assert found == [], f"complements built outside the allowed sites: {found}"


# (module, enclosing function) allowed to test a vertex set for independence
# by itself; every witness goes through Graph.checked_witness instead
INDEPENDENCE_TEST_SITES = {
    ("hardness", "project_solution"),         # an input check: ValueError
    ("iterexp", "build"),                     # RamseyCliques' column check
    ("iterexp", "ramsey_extraction_stage"),   # the early-set test
}


def test_witnesses_use_the_one_check():
    found = _calls_outside("is_independent_set", INDEPENDENCE_TEST_SITES)
    assert found == [], f"witness checks outside Graph.checked_witness: {found}"


def test_outcomes_are_built_by_the_checked_builder():
    # every solver route's outcome passes the one witness check
    found = _calls_outside("SolveOutcome", {("solver", "_decided")})
    assert found == [], f"SolveOutcome built outside solver._decided: {found}"


# public functions with a ``mask`` parameter that need not call vertex_mask
UNCHECKED_MASK_ENTRIES = {
    ("graph", "Graph"),          # unchecked primitives, reached with checked masks
    ("graph", "bits"),           # iterates any non-negative int
    ("cograph", "cograph_alpha"),  # delegates to cograph_decompose
}


def _public_mask_entries(tree: ast.Module):
    """(owner, function, node) of every public top-level function, and every
    public method of a public top-level class, with a ``mask`` parameter;
    the owner is the class, or the function itself."""
    for node in tree.body:
        funcs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            funcs = [(node.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
        for owner, f in funcs:
            args = f.args
            if not f.name.startswith("_") and "mask" in {
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                yield owner, f.name, f


def test_mask_entries_are_checked():
    found, seen = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, name, node in _public_mask_entries(tree):
            seen.add(name)
            if ((path.stem, owner) not in UNCHECKED_MASK_ENTRIES
                    and next(_calls(node, "vertex_mask"), None) is None):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == [], f"mask entries that never call vertex_mask: {found}"
    # the walk still sees the entries it was written for
    assert {"alpha_exact", "find_induced", "solve_cluster_free", "connected_components",
            "cograph_alpha"} <= seen, seen


_G = Graph(3, [(0, 1)])

# every public mask entry that checks the caller's mask, called on _G
MASK_ENTRIES = {
    "solve_cluster_free": lambda m: solve_cluster_free(_G, 1, 2, 1, mask=m),
    "ramsey_extract": lambda m: ramsey_extract(_G, 2, 2, m),
    "eh_extract": lambda m: eh_extract(_G, 3, 1, m),
    "greedy_clique_cover": lambda m: greedy_clique_cover(_G, mask=m),
    "greedy_independent_set": lambda m: greedy_independent_set(_G, m),
    "enumerate_independent_sets": lambda m: list(enumerate_independent_sets(_G, m)),
    "find_p4": lambda m: find_p4(_G, m),
    "cograph_decompose": lambda m: cograph_decompose(_G, m),
}


@pytest.mark.parametrize("name", sorted(MASK_ENTRIES))
def test_mask_entries_reject_foreign_masks(name):
    call = MASK_ENTRIES[name]
    call(_G.full_mask)
    with pytest.raises(ValueError, match=r"outside the 3 vertices"):
        call(0b100011)
    with pytest.raises(ValueError, match="negative"):
        call(-1)


def test_internal_check_survives_optimize_flag():
    script = (
        "from hfree_mis import solver\n"
        "from hfree_mis.cograph import cograph_alpha\n"
        "from hfree_mis.errors import InternalCheckError\n"
        "from hfree_mis.graph import Graph\n"
        "from hfree_mis.patterns import complete\n"
        "solver.greedy_independent_set = lambda g: g.full_mask\n"
        "try:\n"
        "    solver.solve_hfree(Graph(3, [(0, 1)]), 3, 'gem')\n"
        "except InternalCheckError:\n"
        "    print('raised by _decided')\n"
        "solver.solve_faug_gem = lambda inst, rng, rounds: (0, 1)\n"
        "try:\n"
        "    solver.solve_paper(complete(22), 2, 'gem')\n"
        "except InternalCheckError:\n"
        "    print('raised by the expansion driver')\n"
        "Graph.is_independent_mask = lambda self, mask: False\n"
        "try:\n"
        "    cograph_alpha(Graph(3, [(0, 1)]))\n"
        "except InternalCheckError:\n"
        "    print('raised by cograph_alpha')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["raised by _decided", "raised by the expansion driver",
                                       "raised by cograph_alpha", ""]


def _budget_defaults(tree: ast.AST):
    """(line, default) of every default given to a budget: a ``budget``
    parameter, a ``budget`` field, or a ``--budget`` option."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from ((d.lineno, d) for a, d in pairs if a.arg == "budget")
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.target.id == "budget" and node.value is not None):
            yield node.lineno, node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"
              and any(isinstance(a, ast.Constant) and a.value == "--budget" for a in node.args)):
            yield from ((kw.value.lineno, kw.value) for kw in node.keywords if kw.arg == "default")


def test_one_budget_default():
    seen, wrong = set(), []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, default in _budget_defaults(tree):
            seen.add(path.stem)
            if not (isinstance(default, ast.Name) and default.id == "DEFAULT_BUDGET"):
                wrong.append(f"{path.name}:{line} {ast.unparse(default)}")
    assert wrong == [], f"budget defaults other than oracle.DEFAULT_BUDGET: {wrong}"
    # the walk still sees the sites it was written for
    assert {"cli", "hardness", "kernelize", "oracle", "solver"} <= seen, seen
