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
    # the index search must reach that entry point at every order h <= k
    # that draws flags, through cartan_test and characters, and not a
    # private copy.  An involutive order is proved by its first flag alone
    # (a witness), and so is an order whose first flag reaches the rank
    # bound min(dim A, j dim b); a zero order draws no flag; any other
    # order is voted in rounds of _FLAG_SAMPLES flags.  The orders above k
    # are derived from the characters at k: no Cartan test, no flag.
    tracer = load_tracer()
    h_max = 3
    with fresh_involutive():
        lib = _Lib({mod for _, mod, _ in tracer.FUNCTIONS})
        tr = tracer.Tracer()
        tr.install(lib)
        tab = lib.modules["tableau"]
        votes = tab._FLAG_SAMPLES
        # span{f_0 (x) e_0*, f_1 (x) e_1*} in Hom(Q^2, Q^2): involutive;
        # the n = r = 3 tableau of one generator: characters (1, 0, 0) at
        # the rank bound, A^(1) = 0, so orders >= 1 are zero; a tableau in
        # Hom(Q^2, Q^3) with characters (2, 1) below the rank bound (3, 3)
        # and dim A^(1) = 3 < 4, involutive from order 1 on
        cases = [
            (tab.Tableau(2, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]),
             0, [1, 0, 0, 0]),
            (tab.Tableau(3, 3, [[[0, 2, -1], [2, 0, 0], [2, 0, 1]]]),
             1, [1, 0, 0, 0]),
            (tab.Tableau(2, 3, [[[0, 0], [1, 0], [0, 0]],
                                [[1, 1], [0, -1], [0, -1]],
                                [[0, 0], [0, -1], [0, 0]]]),
             1, [votes, 1, 0, 0]),
        ]
        indices = []
        for t, _, _ in cases:
            tr.begin("index")
            indices.append(tab.involutive_index(t, h_max, seed=0))
            tr.end(1.0)
    assert [index["k"] for index in indices] == [k for _, k, _ in cases]
    spans = tr.spans

    def ancestor(i, name):
        parent = spans[i][3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        return parent

    searches = [i for i, span in enumerate(spans)
                if span[0] == "tableau.involutive_index"]
    tests = {i: 0 for i, span in enumerate(spans) if span[0] == "tableau.cartan_test"}
    for i, span in enumerate(spans):
        if span[0] == "tableau.character_partial_sums":
            assert spans[span[3]][0] == "tableau.characters"
            tests[ancestor(i, "tableau.cartan_test")] += 1
    for search, (_, k, flags) in zip(searches, cases):
        counts = [c for i, c in tests.items()
                  if ancestor(i, "tableau.involutive_index") == search]
        assert counts == flags[:k + 1] and not any(flags[k + 1:])
    assert len(tests) == sum(k + 1 for _, k, _ in cases)
    assert not any(span[0] == "tableau.view_at_level" for span in spans)
