"""The traced benchmark's patch table must match the code it patches.

``perfbench/tracer.py`` wraps dpqr functions under the names their callers
bind.  If a refactor moves a call to another module, the table would name an
attribute that no longer exists or is never looked up there, and a traced
benchmark run would crash or lose its spans.  These tests read the table
without running the benchmark.
"""

import dis
import importlib.util
import inspect
import types
from pathlib import Path

import dpqr

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layer_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.layer_table(dpqr)


def _globals_read_by_functions(module) -> set[str]:
    """Global names loaded by the functions and methods defined in a module."""
    code = compile(inspect.getsource(module), module.__file__, "exec")
    stack = [c for c in code.co_consts if isinstance(c, types.CodeType)]
    names: set[str] = set()
    while stack:
        c = stack.pop()
        names.update(i.argval for i in dis.get_instructions(c) if i.opname == "LOAD_GLOBAL")
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return names


def test_every_patched_attribute_exists_and_is_callable():
    table = _layer_table()
    assert table
    for owner, attr, layer in table:
        assert hasattr(owner, attr), f"{owner!r} has no {attr!r} (layer {layer})"
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr} is not callable"


def test_every_patched_module_name_is_called_there():
    # the package itself is patched for callers outside dpqr; every
    # submodule entry must name a function that module's own code calls
    for owner, attr, layer in _layer_table():
        if isinstance(owner, types.ModuleType) and owner is not dpqr:
            assert attr in _globals_read_by_functions(owner), (
                f"{owner.__name__} never calls {attr} (layer {layer})"
            )
