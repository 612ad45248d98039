"""Seeded fuzz of the exit-code contract of the command line.

About a hundred tableau and system files, drawn from one fixed
random.Random (n, r <= 3, entries in {0, +-1, 2, 3, 1/2, -3/4}, some
with dependent generators, some with a malformed or failing phi), run
through tableau, spencer --two-acyclic, system --check --tower 1 and
cauchy as in-process main calls.  main derives the exit code from the
certificates, so outside tableau (a report) exit 0 means no error and
every certificate passed, and an exit 1 without an error carries a
failed certificate.
"""

import json
import random
from collections import Counter
from fractions import Fraction

from involutive.cli import main
from involutive.errors import InvolutiveError
from involutive.tableau import Tableau, involutive_index

ENTRIES = (0, 1, -1, 2, 3, "1/2", "-3/4")
CASES = 100


def _generator(rng, n, r):
    return [[rng.choice(ENTRIES) for _ in range(n)] for _ in range(r)]


def _phi(rng, n, r, nv):
    """A phi table: empty, random (mostly outside B^{0,2}), or malformed."""
    kind = rng.choice(("empty", "random", "random", "malformed"))
    if kind == "empty" or n < 2:
        return {}
    if kind == "malformed":
        return rng.choice((
            [1],
            {"0,1": [["1", [0] * nv]]},
            {"%d,0,1" % r: [["1", [0] * nv]]},
            {"0,0,1": [["x", [0] * nv]]},
            {"0,0,1": [["1", [0] * (nv + 1)]]},
            {"0,1,0": [["1", [0] * nv]]},
        ))
    phi = {}
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(n - 1)
        key = "%d,%d,%d" % (rng.randrange(r), i, rng.randrange(i + 1, n))
        phi[key] = [[str(rng.choice(ENTRIES[1:])),
                     [rng.randint(0, 1) for _ in range(nv)]]]
    return phi


def _cauchy_data(rng, blob):
    """Initial data fitted to the involutive index and characters of the
    tableau when the library computes them, else the bare base point."""
    n = blob["a_dim"]
    data = {"x0": [0] * n, "P_const": [], "P_blocks": {}}
    try:
        t = Tableau.from_json_dict(blob)
        idx = involutive_index(t, h_max=6)
    except InvolutiveError:
        return data
    s = idx["involutive_characters"].s
    data["P_const"] = [[rng.choice(ENTRIES) for _ in range(t.dim_at(h))]
                       for h in range(idx["k"])]
    for rho in range(1, max((j + 1 for j, x in enumerate(s) if x), default=0) + 1):
        data["P_blocks"][str(rho)] = [
            [[str(rng.choice(ENTRIES[1:])), [0] * rho], ["1/2", [1] + [0] * (rho - 1)]]
            for _ in range(s[rho - 1])
        ]
    return data


def _case(rng):
    n, r = rng.randint(1, 3), rng.randint(1, 3)
    gens = [_generator(rng, n, r) for _ in range(rng.randint(0, min(3, n * r)))]
    if gens and rng.random() < 0.15:
        c = rng.choice((2, Fraction(-3, 4)))
        gens.append([[str(c * Fraction(x)) for x in row] for row in gens[0]])
    blob = {"a_dim": n, "b_dim": r, "generators": gens}
    if rng.random() < 0.8:
        blob["phi"] = _phi(rng, n, r, n + len(gens))
    return blob


def test_exit_codes_follow_the_certificates(tmp_path, capsys):
    rng = random.Random(36)
    seen = Counter()
    for case in range(CASES):
        blob = _case(rng)
        path = tmp_path / ("case%d.json" % case)
        path.write_text(json.dumps(blob))
        data = tmp_path / ("data%d.json" % case)
        data.write_text(json.dumps(_cauchy_data(rng, blob)))
        for argv in (
            ["tableau", str(path)],
            ["spencer", str(path), "--two-acyclic"],
            ["system", str(path), "--check", "--tower", "1"],
            ["cauchy", str(path), str(data), "--degree", "2", "--verify"],
        ):
            capsys.readouterr()
            code = main(argv + ["--json"])
            report = json.loads(capsys.readouterr().out)
            error = report.get("error")
            passed = all(c["passed"] for c in report["certificates"])
            where = (blob, argv[0], code, error)
            assert code in (0, 1, 2, 3), where
            if argv[0] == "tableau":
                assert (code == 0) == (error is None), where
            else:
                assert (code == 0) == (error is None and passed), where
            if code == 1 and error is None:
                assert not passed, where
            seen[argv[0], code, error is None, passed] += 1
    # the corpus reaches every branch of the contract
    assert seen["tableau", 0, True, False] and seen["tableau", 2, False, True]
    assert seen["spencer", 1, True, False] and seen["spencer", 0, True, True]
    assert seen["system", 1, False, True] and seen["system", 0, True, True]
    assert seen["system", 2, False, True] and seen["cauchy", 0, True, True]
