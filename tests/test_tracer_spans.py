"""The benchmark tracer wraps callables by name; each name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_callable_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "involutive"}
    for key in saved:
        del sys.modules[key]
    try:
        names = [name for name, _, _ in tracer.FUNCTIONS]
        assert len(names) == len(set(names))
        for name, mod_name, attr in tracer.FUNCTIONS:
            obj = importlib.import_module("involutive." + mod_name)
            for part in attr.split("."):
                assert hasattr(obj, part), (name, mod_name, attr)
                obj = getattr(obj, part)
            assert callable(obj), name
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] == "involutive"]:
            del sys.modules[key]
        sys.modules.update(saved)
