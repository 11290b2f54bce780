"""The top-level ``dpqr`` namespace and what imports from it.

``dpqr/__init__.py`` exports only the names a release and an experiment
need; the demos import everything else from its submodule.  Every module
of the package is loaded by ``import dpqr`` or by ``dpqr.cli``, every
public function and class in it has a caller in the package or in the
benchmark, every optional parameter is set by one of those callers, and
the error types are flat.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpqr
from dpqr import errors

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# demos 01 and 05 take over ten seconds each, so only their imports run
FAST_DEMOS = [d for d in DEMOS if d.name[:2] in ("02", "03", "04")]
SRC = str(Path(dpqr.__file__).resolve().parents[1])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the accounting functions wait for releases that record their own privacy
# spend; frank_wolfe_gap is the objective-module caller of softmax that the
# traced benchmark patches, and the tests' reference gap
NO_CALLER_YET = {
    "advanced_composition", "gaussian_rdp", "optimal_rdp_order", "rdp_to_dp", "frank_wolfe_gap",
}


def _referenced(tree) -> set[str]:
    """Names and attributes a syntax tree loads, and its string constants."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_cli_module_runs_without_warnings():
    # importing dpqr.cli from __init__ makes runpy warn that the module was
    # already in sys.modules when run as ``python -m dpqr.cli``
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dpqr.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "gen-workload" in proc.stdout


def test_package_holds_no_unreached_module():
    # a release and the command line between them load every module file;
    # test-only helpers live under tests/
    code = "import sys, dpqr, dpqr.cli; print(*[m for m in sys.modules if m.startswith('dpqr')])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    files = {
        "dpqr" if p.stem == "__init__" else f"dpqr.{p.stem}"
        for p in (Path(SRC) / "dpqr").glob("*.py")
    }
    assert files - loaded == set()


def test_every_public_function_has_a_caller():
    # a public function or class that only tests and demos call belongs
    # with them; an import or an __all__ entry is not a caller
    public, called = set(), set()
    for path in (Path(SRC) / "dpqr").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign) and "__all__" in _referenced(stmt):
                continue
            refs = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    public.add(stmt.name)
            called |= refs
    for path in PERFBENCH.glob("*.py"):
        called |= _referenced(ast.parse(path.read_text()))
    assert public - called - NO_CALLER_YET == set()


def _optional_parameters(tree) -> set[tuple[str, str, int | None]]:
    """(name, parameter, positional index or None) of every parameter with a
    default on a public function or method; ``__init__`` goes by its class's
    name, and a method's index does not count ``self`` or ``cls``."""
    found = set()

    def add(name, args, bound):
        pos = args.posonlyargs + args.args
        first = len(pos) - len(args.defaults)
        found.update((name, a.arg, i - bound) for i, a in enumerate(pos) if i >= first)
        found.update(
            (name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        )

    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            add(stmt.name, stmt.args, 0)
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    add(stmt.name if item.name == "__init__" else item.name, item.args, not static)
    return found


def _set_by_calls(tree) -> tuple[set[str], set[tuple[str, int]]]:
    """Keywords that calls pass, and (callee name, index) of their positional arguments."""
    keywords, positional = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            keywords.update(kw.arg for kw in node.keywords if kw.arg)
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            positional.update((name, i) for i in range(len(node.args)))
    return keywords, positional


def test_every_optional_parameter_is_set_by_a_caller():
    # a default that only tests override is an option nobody uses: the
    # tests should reach that behaviour through the package's own inputs
    optional, keywords, positional = set(), set(), set()
    for path in (Path(SRC) / "dpqr").glob("*.py"):
        tree = ast.parse(path.read_text())
        optional |= _optional_parameters(tree)
        kw, pos = _set_by_calls(tree)
        keywords |= kw
        positional |= pos
    for path in PERFBENCH.glob("*.py"):
        kw, pos = _set_by_calls(ast.parse(path.read_text()))
        keywords |= kw
        positional |= pos
    unset = {
        (name, param) for name, param, index in optional
        if param not in keywords and (name, index) not in positional
    }
    assert unset == set()


def test_error_types_are_flat():
    # one type per outcome a caller handles differently; a subclass comes
    # together with the caller that catches it
    own = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert {cls.__name__ for cls in own if own & set(cls.__mro__[1:])} == set()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    # only the import statements run, so a missing export fails in
    # milliseconds without running the demo itself
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(demo), "exec"), {})


@pytest.mark.parametrize("demo", FAST_DEMOS, ids=lambda p: p.name)
def test_fast_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
