"""Every public name the benchmark's tracer rebinds still exists.

``perfbench/tracing.py`` wraps each ``(module, name)`` pair of its
``_PATCHES`` list with ``getattr``; a pair that no longer resolves on
``derham`` would make ``--trace 1`` raise.  The tracer is loaded by file
path and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

from derham.complexcheck import build_diagram

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name, attr):
    """Whether ``attr`` names a callable of the module.  A ``Class.method``
    must be defined on that class itself: wrapping a method it only
    inherits would wrap the base class's (perhaps already wrapped) function,
    count its calls twice and leave it wrapped after undo."""
    owner = importlib.import_module(f"derham.{module_name}")
    for part in attr.split("."):
        if isinstance(owner, type) and part not in vars(owner):
            return False
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_trace_hook_resolves():
    patches = load_tracing()._PATCHES
    assert patches
    missing = [(mod, attr) for mod, attr, _ in patches if not resolves(mod, attr)]
    assert missing == []
    assert resolves("operators", "GramBlock.__new__")
    assert not resolves("operators", "GramBlock.index")  # inherited from tuple only


def test_traced_assemblies_carry_nnz():
    """The tracer adds up ``result.nnz`` of each first and second assembly."""
    tracing = load_tracing()
    assert tracing._NNZ_SOURCES <= {attr for _, attr, _ in tracing._PATCHES}
    inst = build_diagram("tri-dp", 2, 2, 1)
    for op in (inst.first, inst.second):
        assert isinstance(op.nnz, int) and op.nnz == len(op.entries) > 0
