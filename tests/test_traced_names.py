"""The benchmark tracer wraps package callables by name; every name must resolve."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_lists():
    # Only the name lists are read: installing the tracer would wrap the
    # package for the rest of the test session.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANNED, mod.COUNTED, mod.CLI_LOSS_FACTORIES


def _resolve(module: str, attr: str):
    obj = importlib.import_module(f"meanreflect.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves():
    spanned, counted, factories = _tracer_lists()
    names = [(module, attr) for module, attr in spanned]
    names += [(module, attr) for module, attr, _ in counted]
    names += [("cli", factory) for factory in factories]
    missing = []
    for module, attr in names:
        try:
            assert callable(_resolve(module, attr))
        except (AttributeError, AssertionError):
            missing.append(f"{module}.{attr}")
    assert missing == []
