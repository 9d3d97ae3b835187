"""The benchmark's tracer wraps program functions by name; every name it wraps must exist.

``perfbench/traced_poolal.py`` looks each traced attribute up with
``owner.__dict__[attr]``, so a rename or a move to a base class makes
``perfbench/run.py --trace 1`` die with a KeyError.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "traced_poolal.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("traced_poolal", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in module.TRACED
        if attr not in owner.__dict__
    ]
    assert module.TRACED
    assert missing == []
