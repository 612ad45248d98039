"""The three benchmark workloads: seeded inputs, tasks and untimed oracles.

A workload is built in three steps.  ``generate`` makes the seeded inputs
during set-up (and writes input files for the CLI workload).  ``tasks``
turns them into a list of ``(task_id, call)`` pairs for one pass; every
call returns a JSON-able answer.  ``oracle`` then checks the answers of a
pass without being timed and returns ``{task_id: [problem, ...]}``.

Every task reaches the program only through the ``lib`` namespace of the
current pass, so the tracer's wrappers and a fresh import both apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import comb

EXAMPLE_NAMES = ("gg0:sl3", "gg0:sl2", "wavemap:su2", "wavemap:abelian")

# Orders up to which the corpus computes A^(h) and searches the involutive index.
CORPUS_TOP = 3


def plain(obj):
    """obj with Fractions as strings and tuples as lists, for JSON."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def digest(obj):
    text = json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def slug(name):
    return name.replace(":", "_")


def random_tableau(lib, rng, n, r, d, bound):
    """JSON of a tableau spanned by d independent random integer matrices."""
    while True:
        vecs = [[rng.randint(-bound, bound) for _ in range(n * r)]
                for _ in range(d)]
        if d == 0 or lib.linalg.Matrix(vecs, ncols=n * r).rank() == d:
            break
    return {
        "a_dim": n,
        "b_dim": r,
        "generators": [
            [[str(v[b * n + i]) for i in range(n)] for b in range(r)]
            for v in vecs
        ],
    }


def full_tableau(n, r):
    """JSON of the full tableau Hom(a, b) on the unit matrices."""
    gens = []
    for b in range(r):
        for i in range(n):
            m = [["0"] * n for _ in range(r)]
            m[b][i] = "1"
            gens.append(m)
    return {"a_dim": n, "b_dim": r, "generators": gens}


class Checker:
    """Collects the problems an oracle finds, per task."""

    def __init__(self):
        self.problems = {}

    def expect(self, task_id, cond, message):
        if not cond:
            self.problems.setdefault(task_id, []).append(message)


def _character_checks(chk, tid, dims, s, bound, dim_a1, involutive):
    """Sum of characters, Cartan bound and involutivity from one test."""
    chk.expect(tid, sum(s) == dims[0], "sum of characters %r != dim A %d" % (s, dims[0]))
    chk.expect(tid, bound == sum((j + 1) * x for j, x in enumerate(s)),
               "Cartan bound %r does not match characters %r" % (bound, s))
    chk.expect(tid, dim_a1 == dims[1], "dim A^(1) %r != %r" % (dim_a1, dims[1]))
    chk.expect(tid, dim_a1 <= bound, "dim A^(1) %r exceeds the Cartan bound" % dim_a1)
    chk.expect(tid, involutive == (dim_a1 == bound),
               "involutive flag disagrees with dim A^(1) = bound")


def _dual_route_dims(lib, chk, tid, blob, top):
    """dims of A^(0..top) on a fresh tableau, checked against the
    intersection route at every order."""
    t = lib.tableau.Tableau.from_json_dict(blob)
    dims = [t.dim]
    for h in range(1, top + 1):
        other = lib.tableau.prolong_via_intersection(t, h)
        chk.expect(tid, other == t.level(h),
                   "A^(%d) differs between the two prolongation routes" % h)
        dims.append(other.dim)
    return t, dims


def _index_checks(lib, chk, tid, t, dims, index, seed):
    """An involutive index: consistent trajectory, or none up to the cap."""
    if index is None:
        for h in range(CORPUS_TOP + 1):
            res = lib.tableau.cartan_test(t.view_at_level(h), seed=seed)
            chk.expect(tid, not res["involutive"],
                       "index search gave up although A^(%d) is involutive" % h)
        return
    k = index["k"]
    flags = [entry[3] for entry in index["trajectory"]]
    traj_dims = [entry[1] for entry in index["trajectory"]]
    common = min(len(dims), len(traj_dims))
    chk.expect(tid, traj_dims[:common] == dims[:common],
               "trajectory dims disagree with A^(h)")
    chk.expect(tid, True in flags and flags.index(True) == k and all(flags[k:]),
               "involutive index %r inconsistent with trajectory %r" % (k, flags))
    chk.expect(tid, k < len(traj_dims) and sum(index["characters"]) == traj_dims[k],
               "characters at the index do not sum to dim A^(k)")


# -- spencer-koszul ---------------------------------------------------------

class SpencerKoszul:
    """Spencer cohomology of the full tableaux with n <= 3, r <= 2 and of
    the four built-in tableaux, one query per (q <= 3, 0 <= p <= n)."""

    name = "spencer-koszul"
    Q_MAX = 3
    # C^{3,p} of the full tableau with n = 3, r = 2 alone takes 16 s at the
    # seed commit; without it a pass is short enough to repeat in one run,
    # which a steady time needs on a noisy host.
    SKIP = {("full-n3-r2", 3)}

    def generate(self, lib, seed, examples, workdir):
        tabs = [("full-n%d-r%d" % (n, r), full_tableau(n, r))
                for n in range(1, 4) for r in range(1, 3)]
        tabs += [(name, examples[name].tableau.to_json_dict())
                 for name in EXAMPLE_NAMES]
        # The inputs do not depend on the seed; it only orders the tableaux.
        random.Random(seed).shuffle(tabs)
        return tabs

    def tasks(self, lib, inputs):
        out = []
        for name, blob in inputs:
            t = lib.tableau.Tableau.from_json_dict(blob)
            for q in range(self.Q_MAX + 1):
                if (name, q) in self.SKIP:
                    continue
                for p in range(t.a_dim + 1):
                    tid = "sk/%s/q%dp%d" % (name, q, p)
                    out.append((tid, _spencer_query(lib, t, q, p)))
        return out

    def oracle(self, lib, inputs, answers, seed):
        chk = Checker()
        for name, blob in inputs:
            n, r = blob["a_dim"], blob["b_dim"]
            tid0 = "sk/%s/q0p0" % name
            t, dims = _dual_route_dims(lib, chk, tid0, blob, self.Q_MAX - 1)
            level_dim = [r] + dims  # A^(-1) = b, then A^(0..2)
            involutive = lib.tableau.cartan_test(t, seed=seed)["involutive"]
            cell, coh = {}, {}
            for q in range(self.Q_MAX + 1):
                for p in range(n + 1):
                    tid = "sk/%s/q%dp%d" % (name, q, p)
                    ans = answers.get(tid)
                    if ans is None:
                        continue
                    cell[q, p], coh[q, p] = ans["cell_dim"], ans["h"]
                    chk.expect(tid, ans["cell_dim"] == level_dim[q] * comb(n, p),
                               "cell dimension %r != dim A^(q-1) * C(n,p)"
                               % ans["cell_dim"])
                    chk.expect(tid, ans["delta_sq_zero"] in (True, None),
                               "delta o delta != 0")
                    if name.startswith("full-"):
                        want = r if (q, p) == (0, 0) else 0
                        chk.expect(tid, ans["h"] == want,
                                   "H = %r on a full tableau, expected %r"
                                   % (ans["h"], want))
                    elif involutive and q >= 1:
                        chk.expect(tid, ans["h"] == 0,
                                   "H = %r on an involutive tableau" % ans["h"])
            # Euler characteristic of each complete line q + p = m.
            for m in range(self.Q_MAX + 1):
                line = [(m - p, p) for p in range(min(m, n) + 1)]
                if all(key in cell for key in line):
                    euler_c = sum((-1) ** p * cell[q, p] for q, p in line)
                    euler_h = sum((-1) ** p * coh[q, p] for q, p in line)
                    chk.expect(tid0, euler_c == euler_h,
                               "Euler characteristic of line %d: cells %d, H %d"
                               % (m, euler_c, euler_h))
        return chk.problems


def _spencer_query(lib, t, q, p):
    """Build C^{q,p}, take delta out, check delta^2 = 0, compute H^{q,p}."""
    def call():
        sp = lib.spencer
        cell = sp.SpencerCell(t, q, p)
        d_out = sp.delta(cell)
        square_zero = None
        if q >= 1 and p + 1 <= t.a_dim:
            again = sp.delta(sp.SpencerCell(t, q - 1, p + 1))
            square = again.matmul(d_out)
            square_zero = square == lib.linalg.Matrix.zeros(square.nrows,
                                                           square.ncols)
        h = sp.cohomology_dim(t, q, p)
        return {"cell_dim": cell.dim, "delta_sq_zero": square_zero, "h": h}
    return call


# -- tableau-corpus ---------------------------------------------------------

class TableauCorpus:
    """Seeded random tableaux, two per shape (n <= 3, r <= 4, dim <= 4),
    each built fresh from JSON and analysed once."""

    name = "tableau-corpus"
    PER_SHAPE = 2
    ENTRY_BOUND = 9

    def generate(self, lib, seed, examples, workdir):
        rng = random.Random(seed)
        shapes = [(n, r, d) for n in (1, 2, 3) for r in (1, 2, 3, 4)
                  for d in range(min(4, n * r) + 1)]
        corpus = []
        for n, r, d in shapes:
            for k in range(self.PER_SHAPE):
                blob = random_tableau(lib, rng, n, r, d, self.ENTRY_BOUND)
                tid = "tc/n%dr%dd%d-%d" % (n, r, d, k)
                corpus.append((tid, blob, rng.randrange(2 ** 31)))
        return corpus

    def tasks(self, lib, inputs):
        return [(tid, _analyse(lib, blob, s)) for tid, blob, s in inputs]

    def oracle(self, lib, inputs, answers, seed):
        chk = Checker()
        for tid, blob, s in inputs:
            ans = answers.get(tid)
            if ans is None:
                continue
            # The intersection route costs more than the task itself at
            # order 3, so it checks orders 1 and 2; order 3 is recomputed on
            # the fresh tableau.
            t, dims = _dual_route_dims(lib, chk, tid, blob, CORPUS_TOP - 1)
            dims.append(t.level(CORPUS_TOP).dim)
            chk.expect(tid, ans["dims"] == dims,
                       "dims %r != fresh dims %r" % (ans["dims"], dims))
            _character_checks(chk, tid, dims, ans["characters"], ans["bound"],
                              ans["dim_A1"], ans["involutive"])
            _index_checks(lib, chk, tid, t, dims, ans["index"], s)
            if ans["index"] is not None:
                chk.expect(tid, (ans["index"]["k"] == 0) == ans["involutive"],
                           "index 0 disagrees with the Cartan test")
            if ans["involutive"]:
                chk.expect(tid, ans["normal_form_verified"],
                           "verify_normal_form failed")
                nf = lib.guillemin.NormalForm.from_json_dict(ans["normal_form"])
                rep = lib.guillemin.verify_normal_form(t, nf, seed=s)
                chk.expect(tid, rep["all_passed"],
                           "normal form fails verification on a fresh tableau")
                chk.expect(tid, list(nf.s) == ans["characters"],
                           "normal form characters differ from the Cartan test")
        return chk.problems


def _analyse(lib, blob, seed):
    """dims of A^(0..3), Cartan test, involutive index, normal form."""
    def call():
        tab = lib.tableau
        t = tab.Tableau.from_json_dict(blob)
        dims = [t.dim_at(h) for h in range(CORPUS_TOP + 1)]
        test = tab.cartan_test(t, seed=seed)
        try:
            idx = tab.involutive_index(t, h_max=CORPUS_TOP, seed=seed)
            index = {
                "k": idx["k"],
                "characters": list(idx["involutive_characters"].s),
                "trajectory": [[e["h"], e["dim"], list(e["characters"]),
                                e["involutive"]] for e in idx["trajectory"]],
            }
        except lib.errors.CapExceeded:
            index = None
        out = {
            "dims": dims,
            "characters": list(test["characters"].s),
            "bound": test["bound"],
            "dim_A1": test["dim_A1"],
            "involutive": test["involutive"],
            "index": index,
        }
        if test["involutive"]:
            nf = lib.guillemin.normal_form(t, seed=seed)
            rep = lib.guillemin.verify_normal_form(t, nf, seed=seed)
            out["normal_form"] = nf.to_json_dict()
            out["normal_form_verified"] = rep["all_passed"]
        return out
    return call


# -- system-cli -------------------------------------------------------------

class SystemCli:
    """In-process ``involutive`` CLI calls with --json on the built-in
    examples, seeded Cauchy data and seeded random tableau files."""

    name = "system-cli"
    DEGREE = 6
    ENTRY_BOUND = 9

    def generate(self, lib, seed, examples, workdir):
        rng = random.Random(seed)
        files = {"work": workdir}
        for name in EXAMPLE_NAMES:
            sys_ = examples[name]
            path = os.path.join(workdir, slug(name) + ".json")
            _write_json(path, sys_.to_json_dict(), indent=2)
            files[name] = path
            # Every built-in example is involutive with s = (dim A, 0, ...),
            # so the data are one block of dim A series in one variable.
            x0 = [rng.randint(-2, 2) for _ in range(sys_.tableau.a_dim)]
            block = [_random_series(lib, rng, self.DEGREE)
                     for _ in range(sys_.tableau.dim)]
            data = lib.cauchy.CauchyData(x0, [], [block])
            dpath = os.path.join(workdir, slug(name) + ".data.json")
            _write_json(dpath, data.to_json_dict())
            files[name, "data"] = dpath
        shapes = [(n, r, d) for n in (1, 2, 3) for r in (1, 2, 3)
                  for d in range(1, min(3, n * r) + 1)]
        shapes += [(1, 2, 0), (3, 2, 0)]
        randoms = []
        for i, (n, r, d) in enumerate(shapes):
            blob = random_tableau(lib, rng, n, r, d, self.ENTRY_BOUND)
            path = os.path.join(workdir, "rand%02d-n%dr%dd%d.json" % (i, n, r, d))
            _write_json(path, blob)
            randoms.append((os.path.basename(path)[:-5], path, blob))
        files["random"] = randoms
        return files

    def calls(self, files):
        """(task_id, kind, subject, argv) for every call of one pass."""
        # The CLI's flag-sampling seed stays at its default, as a shell user
        # leaves it; the workload seed varies the input files.
        seed = ["--seed", "0", "--json"]
        out = []
        for name in EXAMPLE_NAMES:
            f = files[name]
            out += [
                ("cli/tableau-index/" + name, "tableau", name,
                 ["tableau", f, "--involutive-index"]),
                ("cli/spencer-two-acyclic/" + name, "spencer", name,
                 ["spencer", f, "--two-acyclic"]),
                ("cli/system-tower-structure/" + name, "system", name,
                 ["system", f, "--check", "--tower", "2", "--structure"]),
                ("cli/cauchy-verify-polar/" + name, "cauchy", name,
                 ["cauchy", f, files[name, "data"], "--degree", str(self.DEGREE),
                  "--verify", "--polar"]),
                ("cli/examples/" + name, "examples", name,
                 ["examples", name, "--out",
                  os.path.join(files["work"], slug(name) + ".out.json")]),
                ("cli/tableau-characters/" + name, "tableau", name,
                 ["tableau", f, "--characters", "--prolong", "2"]),
                ("cli/spencer-harmonic/" + name, "spencer", name,
                 ["spencer", f, "--q-max", "1", "--harmonic"]),
                ("cli/system-check/" + name, "system", name,
                 ["system", f, "--check"]),
            ]
        for rid, path, blob in files["random"]:
            out += [
                ("cli/tableau-index/" + rid, "tableau", rid,
                 ["tableau", path, "--involutive-index", "--max-order",
                  str(CORPUS_TOP)]),
                ("cli/tableau-characters/" + rid, "tableau", rid,
                 ["tableau", path, "--characters", "--prolong", "2"]),
                ("cli/spencer/" + rid, "spencer", rid,
                 ["spencer", path, "--q-max", "1"]),
            ]
        return [(tid, kind, subject, argv + seed)
                for tid, kind, subject, argv in out]

    def tasks(self, lib, files):
        work = files["work"]
        return [(tid, _cli_call(lib, argv, work))
                for tid, kind, subject, argv in self.calls(files)]

    def oracle(self, lib, files, answers, seed):
        chk = Checker()
        facts = {}
        blobs = {name: _read_json(files[name]) for name in EXAMPLE_NAMES}
        blobs.update({rid: blob for rid, path, blob in files["random"]})
        for tid, kind, subject, argv in self.calls(files):
            ans = answers.get(tid)
            if ans is None:
                continue
            if subject not in facts:
                facts[subject] = _subject_facts(lib, blobs[subject], seed)
            f = facts[subject]
            code, rep = ans["exit"], ans["report"]
            res = rep.get("results", {})
            certs = {c["name"]: c["passed"] for c in rep.get("certificates", [])}
            if kind == "examples":
                chk.expect(tid, code == 0, "exit %r" % code)
                written = _read_json(argv[3])
                chk.expect(tid, written == blobs[subject],
                           "written example differs from the built example")
                continue
            if kind == "tableau":
                if code == 3 and "--involutive-index" in argv:
                    # The index search hit --max-order; check that it had to.
                    _index_checks(lib, chk, tid, f["tableau"], f["dims"], None,
                                  seed)
                    continue
                chk.expect(tid, code == 0, "exit %r (%s)" % (code, rep.get("error")))
                if code != 0:
                    continue
                dims = res["prolongation_dims"]
                chk.expect(tid, dims == f["dims"][:len(dims)],
                           "prolongation dims %r != %r" % (dims, f["dims"]))
                _character_checks(chk, tid, f["dims"], res["characters"],
                                  res["cartan_bound"], res["dim_A1"],
                                  res["involutive"])
                chk.expect(tid, certs.get("cartan_test") == res["involutive"],
                           "cartan_test certificate disagrees with the result")
                if "coordinate_flag_partial_sums" in res:
                    sums = res["coordinate_flag_partial_sums"]
                    chk.expect(tid, sums == sorted(sums) and sums[-1] == f["dims"][0],
                               "coordinate partial sums %r" % sums)
                if "involutive_index" in res:
                    index = {
                        "k": res["involutive_index"],
                        "characters": res["involutive_characters"],
                        "trajectory": [[e["h"], e["dim"], e["characters"],
                                        e["involutive"]]
                                       for e in res["character_trajectory"]],
                    }
                    _index_checks(lib, chk, tid, f["tableau"], f["dims"], index,
                                  seed)
            elif kind == "spencer":
                chk.expect(tid, code == (0 if certs.get("two_acyclicity", True) else 1),
                           "exit %r (%s)" % (code, rep.get("error")))
                if code == 2:
                    continue
                for q, row in res["H_dims"].items():
                    chk.expect(tid, len(row) == f["n"] + 1, "H row %s length" % q)
                    if f["involutive"]:
                        chk.expect(tid, all(v == 0 for v in row.values()),
                                   "H^{%s,p} = %r on an involutive tableau" % (q, row))
                if "two_acyclic" in res:
                    chk.expect(tid, certs["two_acyclicity"] == res["two_acyclic"],
                               "two_acyclicity certificate disagrees")
                    if f["involutive"]:
                        chk.expect(tid, res["two_acyclic"],
                                   "involutive tableau reported not 2-acyclic")
                for q, split in res.get("harmonic_split_dims", {}).items():
                    cell_dim = f["dims"][int(q) - 1] * f["n"]
                    chk.expect(tid, sum(split) == cell_dim and
                               split[1] == res["H_dims"][q]["1"],
                               "harmonic split %r of C^{%s,1}" % (split, q))
            elif kind == "system":
                chk.expect(tid, code == 0, "exit %r (%s)" % (code, rep.get("error")))
                if code != 0:
                    continue
                chk.expect(tid, certs and all(certs.values()),
                           "failed certificates %r" % certs)
                if "structure_checks" in res:
                    chk.expect(tid, all(c["passed"] for c in res["structure_checks"]),
                               "structure equations fail")
                    chk.expect(tid, len(res["tower_degrees"]) == 3,
                               "tower has %r maps" % len(res["tower_degrees"]))
            elif kind == "cauchy":
                chk.expect(tid, code == 0, "exit %r (%s)" % (code, rep.get("error")))
                if code != 0:
                    continue
                chk.expect(tid, certs and all(certs.values()),
                           "failed certificates %r" % certs)
                chk.expect(tid, res["residual"]["clean"], "residual is not clean")
                s = res["s"]
                chk.expect(tid, res["k"] == 0 and sum(s) == f["dims"][0],
                           "k = %r, s = %r" % (res["k"], s))
                if "polar_dims" in res:
                    n = f["n"]
                    want = [n + sum(s[h:]) for h in range(n + 1)]
                    chk.expect(tid, res["polar_dims"] == want,
                               "polar dims %r != %r" % (res["polar_dims"], want))
                    chk.expect(tid, all(res["restricted_polar"]),
                               "restricted polar counts fail")
        return chk.problems


def _subject_facts(lib, blob, seed):
    """Independent facts about one input tableau for the CLI oracle."""
    chk = Checker()
    t, dims = _dual_route_dims(lib, chk, "facts", blob, 2)
    if chk.problems:
        raise AssertionError("dual prolongation routes disagree: %r" % chk.problems)
    involutive = lib.tableau.cartan_test(t, seed=seed)["involutive"]
    return {"tableau": t, "dims": dims, "n": t.a_dim, "involutive": involutive}


def _random_series(lib, rng, degree):
    terms = {}
    for d in range(degree + 1):
        if rng.random() < 0.6:
            terms[(d,)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return lib.poly.Polynomial(1, terms)


def _cli_call(lib, argv, work):
    """One ``involutive`` call; its answer is the exit code and the report
    with the run-specific work directory and timing taken out."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        report = json.loads(out.getvalue().replace(work, "<work>"))
        report.pop("timing_seconds", None)
        return {"exit": code, "report": report}
    return call


def _write_json(path, obj, indent=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(plain(obj), indent=indent, sort_keys=True) + "\n")


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (SpencerKoszul(), TableauCorpus(), SystemCli())}
