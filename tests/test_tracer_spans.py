"""The benchmark tracer wraps callables by name; each name must resolve,
and the wrapped entry points must see the work they are meant to count."""

import contextlib
import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@contextlib.contextmanager
def fresh_involutive():
    """Import the package anew for the block, then restore the modules
    the rest of the session uses."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "involutive"}
    for key in saved:
        del sys.modules[key]
    try:
        yield
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] == "involutive"]:
            del sys.modules[key]
        sys.modules.update(saved)


def test_every_traced_callable_resolves():
    tracer = load_tracer()
    with fresh_involutive():
        names = [name for name, _, _ in tracer.FUNCTIONS]
        assert len(names) == len(set(names))
        for name, mod_name, attr in tracer.FUNCTIONS:
            obj = importlib.import_module("involutive." + mod_name)
            for part in attr.split("."):
                assert hasattr(obj, part), (name, mod_name, attr)
                obj = getattr(obj, part)
            assert callable(obj), name
        # a cache that loses its lru_cache would drop silently out of
        # bases.cache_hit_share
        bases = importlib.import_module("involutive.bases")
        for name in tracer.CACHED_BASES:
            assert hasattr(getattr(bases, name, None), "cache_info"), name


class _Lib:
    def __init__(self, names):
        self.modules = {m: importlib.import_module("involutive." + m) for m in names}


def test_involutive_index_counts_flags_at_every_order():
    # tableau.flags_evaluated counts the character_partial_sums spans, so
    # the index search must reach that entry point at every order h,
    # through cartan_test and characters, and not a private copy.
    tracer = load_tracer()
    h_max, samples = 3, 5
    with fresh_involutive():
        lib = _Lib({mod for _, mod, _ in tracer.FUNCTIONS})
        tr = tracer.Tracer()
        tr.install(lib)
        tab = lib.modules["tableau"]
        # span{f_0 (x) e_0*, f_1 (x) e_1*} in Hom(Q^2, Q^2): involutive
        t = tab.Tableau(2, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
        tr.begin("index")
        index = tab.involutive_index(t, h_max, samples=samples, seed=0)
        tr.end(1.0)
    assert index["k"] == 0
    spans = tr.spans

    def ancestor(i, name):
        parent = spans[i][3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        return parent

    tests = [i for i, span in enumerate(spans) if span[0] == "tableau.cartan_test"]
    assert len(tests) == h_max + 1
    per_order = {i: 0 for i in tests}
    for i, span in enumerate(spans):
        if span[0] == "tableau.character_partial_sums":
            assert spans[span[3]][0] == "tableau.characters"
            per_order[ancestor(i, "tableau.cartan_test")] += 1
    # one round of `samples` flags per attempt, at least one attempt
    for i in tests:
        assert per_order[i] >= samples and per_order[i] % samples == 0
    assert not any(span[0] == "tableau.view_at_level" for span in spans)
