"""Command-line front end.

Subcommands:

    tableau FILE   prolongation dims, characters, Cartan test, index
    spencer FILE   Spencer cohomology table, 2-acyclicity, harmonic splits
    system FILE    regularity certificates, tower chain, structure equations
    cauchy SYS DATA  formal solution, residual report, polar dimensions
    examples NAME  write a built-in fixture (gg0:sl3, gg0:sl2,
                   wavemap:su2, wavemap:abelian) as system JSON

Every command accepts --json for a machine-readable report carrying the
same numbers as the human output, a --seed (falling back to the
ARTIFACT_SEED environment variable, then 0; a non-integer ARTIFACT_SEED
is bad input), and resource caps (--max-dim, --max-degree) that fail
loudly with exit code 3; a cap below its least value (--max-dim < 1,
--max-degree < 0) is bad input.  The seed is the only setting of the
random flags that certify Cartan characters; a failed certification
(exit 1) may pass under another seed.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad
input, 3 resource cap exceeded.  `tableau` is a report, not a check: it
records the Cartan verdict in its cartan_test certificate and exits 0
whether or not the tableau is involutive.

In-process main() calls share one argument parser, built on first use;
each call still parses its own argv into a fresh namespace and builds
fresh tableaux and systems.  `python -m involutive` runs main().
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from .cauchy import (
    DEFAULT_MAX_DEGREE,
    CauchyData,
    polar_dims,
    restricted_polar_check,
    solve_formal,
    verify_solution,
)
from .errors import (
    CapExceeded,
    InputError,
    InvolutiveError,
    UnstableGenericity,
)
from .guillemin import normal_form
from .liealg import abelian_algebra, sl2_decomposition, sl3_decomposition, su2_algebra
from .spencer import cohomology_dim, harmonic_split, two_acyclicity_report
from .systems import (
    System,
    build_gg0_system,
    build_s_chain,
    build_wavemap_system,
    check_phi_in_B02,
    check_torsion_condition,
    verify_structure_equations,
)
from .tableau import (
    _FLAG_SAMPLES,
    DEFAULT_MAX_DIM,
    Tableau,
    cartan_test,
    character_partial_sums,
    involutive_index,
)
from .linalg import Matrix

EXAMPLE_NAMES = ("gg0:sl3", "gg0:sl2", "wavemap:su2", "wavemap:abelian")


def _sanitize(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _load_json(args, path):
    """Parse a JSON input file, read once; the sha256 of the bytes parsed
    goes into args.input_digest under the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    try:
        blob = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise InputError("%s is not valid JSON: %s" % (path, exc)) from exc
    args.input_digest[path] = hashlib.sha256(raw).hexdigest()
    return blob


def _load_tableau(args, path):
    """Accept either a bare tableau file or a full system file."""
    return Tableau.from_json_dict(_load_json(args, path), args.max_dim)


def _load_system(args, path):
    blob = _load_json(args, path)
    if not isinstance(blob, dict) or "phi" not in blob:
        raise InputError("%s does not contain a system description" % path)
    return System.from_json_dict(blob, args.max_dim)


def build_example(name):
    if name == "gg0:sl3":
        return build_gg0_system(sl3_decomposition())
    if name == "gg0:sl2":
        return build_gg0_system(sl2_decomposition())
    if name == "wavemap:su2":
        return build_wavemap_system(su2_algebra())
    if name == "wavemap:abelian":
        return build_wavemap_system(abelian_algebra(2))
    raise InputError(
        "unknown example %r; choose one of %s" % (name, ", ".join(EXAMPLE_NAMES))
    )


def cmd_tableau(args):
    t = _load_tableau(args, args.file)
    seed = args.seed
    results = {"a_dim": t.a_dim, "b_dim": t.b_dim, "dim": t.dim}
    certificates = []
    passed = True
    top = args.prolong if args.prolong is not None else 1
    if top < 0:
        raise InputError("--prolong must be >= 0, got %d" % top)
    results["prolongation_dims"] = [t.dim_at(h) for h in range(top + 1)]
    test = cartan_test(t, seed=seed)
    results["characters"] = list(test["characters"].s)
    results["cartan_bound"] = test["bound"]
    results["dim_A1"] = test["dim_A1"]
    results["involutive"] = test["involutive"]
    certificates.append(
        {
            "name": "cartan_test",
            "passed": bool(test["involutive"]),
            "method": "generic_flags(samples=%d, seed=%d)" % (_FLAG_SAMPLES, seed),
        }
    )
    if args.characters:
        ident = Matrix.identity(t.a_dim)
        results["coordinate_flag_partial_sums"] = character_partial_sums(t, ident)
    if args.involutive_index:
        idx = involutive_index(t, h_max=args.max_order, seed=seed)
        results["involutive_index"] = idx["k"]
        results["involutive_characters"] = list(idx["involutive_characters"].s)
        results["character_trajectory"] = idx["trajectory"]
    return passed, results, certificates


def _human_tableau(results):
    lines = ["tableau: a_dim=%(a_dim)d b_dim=%(b_dim)d dim=%(dim)d" % results]
    lines.append(
        "prolongation dims: %s"
        % ", ".join(str(d) for d in results["prolongation_dims"])
    )
    lines.append(
        "characters s = (%s), cartan bound %d, dim A^(1) = %d"
        % (
            ", ".join(str(x) for x in results["characters"]),
            results["cartan_bound"],
            results["dim_A1"],
        )
    )
    lines.append("involutive: %s" % ("yes" if results["involutive"] else "no"))
    if "coordinate_flag_partial_sums" in results:
        lines.append(
            "coordinate flag partial sums: %s"
            % results["coordinate_flag_partial_sums"]
        )
    if "involutive_index" in results:
        lines.append(
            "involutive index k = %d, characters (%s)"
            % (
                results["involutive_index"],
                ", ".join(str(x) for x in results["involutive_characters"]),
            )
        )
    return lines


def cmd_spencer(args):
    t = _load_tableau(args, args.file)
    results = {}
    certificates = []
    passed = True
    q_max = args.q_max
    p_max = args.p_max if args.p_max is not None else t.a_dim
    if q_max < 1:
        raise InputError("--q-max must be >= 1, got %d" % q_max)
    if p_max < 0:
        raise InputError("--p-max must be >= 0, got %d" % p_max)
    table = {}
    for q in range(1, q_max + 1):
        row = {}
        for p in range(0, p_max + 1):
            row[p] = cohomology_dim(t, q, p)
        table[q] = row
    results["H_dims"] = table
    if args.two_acyclic:
        rep = two_acyclicity_report(t, q_cap=q_max, seed=args.seed)
        results["two_acyclic"] = rep["two_acyclic"]
        results["checked_q_range"] = rep["checked_q_range"]
        certificates.append(
            {
                "name": "two_acyclicity",
                "passed": bool(rep["two_acyclic"]),
                "method": "exact_cohomology(q=1..%d)" % rep["checked_q_range"][1],
            }
        )
        passed = passed and rep["two_acyclic"]
    if args.harmonic:
        splits = {}
        for q in range(1, q_max + 1):
            split = harmonic_split(t, q, 1)
            splits[q] = split.dims()
        results["harmonic_split_dims"] = splits
    return passed, results, certificates


def _human_spencer(results):
    lines = ["Spencer cohomology dims H^{q,p}:"]
    for q, row in results["H_dims"].items():
        cells = ", ".join("p=%s: %s" % (p, d) for p, d in row.items())
        lines.append("  q=%s: %s" % (q, cells))
    if "two_acyclic" in results:
        lines.append(
            "two-acyclic: %s (q = 1..%d)"
            % (
                "yes" if results["two_acyclic"] else "no",
                results["checked_q_range"][1],
            )
        )
    if "harmonic_split_dims" in results:
        for q, dims in results["harmonic_split_dims"].items():
            lines.append(
                "harmonic split C^{%s,1}: B_up %s, H %s, B_down %s"
                % (q, dims[0], dims[1], dims[2])
            )
    return lines


def cmd_system(args):
    sys_ = _load_system(args, args.file)
    t = sys_.tableau
    results = {
        "a_dim": t.a_dim,
        "b_dim": t.b_dim,
        "dim": t.dim,
        "phi_components": len(sys_.phi),
        "quasilinear_homogeneous": sys_.is_quasilinear_homogeneous(),
    }
    certificates = []
    passed = True
    if args.check:
        b02 = check_phi_in_B02(sys_)
        results["phi_in_B02"] = b02
        certificates.append(
            {"name": "phi_in_B02", "passed": b02["passed"], "method": b02["method"]}
        )
        tor = check_torsion_condition(sys_)
        results["torsion_condition"] = tor
        certificates.append(
            {
                "name": "torsion_condition",
                "passed": tor["passed"],
                "method": tor["method"],
            }
        )
        passed = passed and b02["passed"] and tor["passed"]
    if args.structure and args.tower is None:
        raise InputError("--structure needs --tower H")
    if args.tower is not None:
        tower = build_s_chain(sys_, args.tower, seed=args.seed)
        results["tower_degrees"] = [
            max(p.total_degree() for p in m.components) if m.components else 0
            for m in tower.s_chain
        ]
        if args.structure:
            rep = verify_structure_equations(sys_, tower)
            results["structure_checks"] = [
                {"name": c["name"], "passed": c["passed"]} for c in rep["checks"]
            ]
            certificates.append(
                {
                    "name": "structure_equations",
                    "passed": rep["all_passed"],
                    "method": "exact_polynomial_identities(order=%d)" % args.tower,
                }
            )
            passed = passed and rep["all_passed"]
    return passed, results, certificates


def _human_system(results):
    lines = [
        "system: a_dim=%(a_dim)d b_dim=%(b_dim)d dim=%(dim)d "
        "phi_components=%(phi_components)d" % results
    ]
    if "phi_in_B02" in results:
        lines.append(
            "phi in B^{0,2}: %s (%s)"
            % (
                "pass" if results["phi_in_B02"]["passed"] else "FAIL",
                results["phi_in_B02"]["method"],
            )
        )
        lines.append(
            "torsion condition: %s (%s)"
            % (
                "pass" if results["torsion_condition"]["passed"] else "FAIL",
                results["torsion_condition"]["method"],
            )
        )
    if "tower_degrees" in results:
        lines.append("tower chain degrees: %s" % results["tower_degrees"])
    if "structure_checks" in results:
        bad = [c["name"] for c in results["structure_checks"] if not c["passed"]]
        lines.append(
            "structure equations: %s (%d checks)"
            % ("pass" if not bad else "FAIL " + ", ".join(bad),
               len(results["structure_checks"]))
        )
    return lines


def cmd_cauchy(args):
    sys_ = _load_system(args, args.system)
    data = CauchyData.from_json_dict(_load_json(args, args.data))
    if args.verify and args.degree < 1:
        raise InputError("--verify needs --degree >= 1")
    if args.degree < 0:
        raise InputError("truncation degree must be >= 0, got %d" % args.degree)
    if args.max_degree < 0:
        raise InputError("--max-degree must be >= 0, got %d" % args.max_degree)
    if args.degree > args.max_degree:
        raise CapExceeded(
            "degree %d exceeds the cap %d (raise --max-degree to override)"
            % (args.degree, args.max_degree)
        )
    t = sys_.tableau
    k = involutive_index(t, h_max=args.max_order, seed=args.seed)["k"]
    tower = build_s_chain(sys_, k, seed=args.seed, k=k)
    nf = normal_form(t, seed=args.seed, h=k)
    results = {"k": k, "s": list(nf.s), "degree": args.degree}
    certificates = []
    passed = True
    sol = solve_formal(sys_, tower, nf, data, args.degree,
                       max_degree=args.max_degree)
    results["solution"] = sol.to_json_dict()
    if args.verify:
        rep = verify_solution(sys_, sol)
        results["residual"] = rep
        certificates.append(
            {
                "name": "residual_clean_through_%d" % rep["max_degree_checked"],
                "passed": rep["clean"],
                "method": "exact_expansion",
            }
        )
        passed = passed and rep["clean"]
    if args.polar:
        results["polar_dims"] = polar_dims(t, nf)
        results["restricted_polar"] = restricted_polar_check(t, nf)
        certificates.append(
            {
                "name": "polar_dimension_table",
                "passed": True,
                "method": "exact_rank(flag from normal form)",
            }
        )
    return passed, results, certificates


def _human_cauchy(results):
    lines = [
        "cauchy: k=%d, s=(%s), degree %d"
        % (results["k"], ", ".join(str(x) for x in results["s"]),
           results["degree"])
    ]
    comp = results["solution"]["composition_identity"]
    lines.append(
        "composition identity by block: %s"
        % ", ".join("[%s]=%s" % (k, v) for k, v in sorted(comp.items()))
    )
    if "residual" in results:
        rep = results["residual"]
        if rep["clean"]:
            lines.append(
                "residual clean through %d" % rep["max_degree_checked"]
            )
        else:
            lines.append(
                "residual FAILS at degree %d, component %s"
                % (rep["first_failure"]["degree"],
                   rep["first_failure"]["component"])
            )
    if "polar_dims" in results:
        lines.append("polar dims: %s" % results["polar_dims"])
        lines.append(
            "restricted polar counts pass: %s"
            % all(results["restricted_polar"])
        )
    return lines


def cmd_examples(args):
    sys_ = build_example(args.name)
    blob = json.dumps(_sanitize(sys_.to_json_dict()), indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(blob + "\n")
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (args.out, exc)) from exc
        results = {"name": args.name, "written": args.out}
    else:
        results = {"name": args.name, "system": sys_.to_json_dict()}
    return True, results, []


def _human_examples(results):
    if "written" in results:
        return ["wrote %s to %s" % (results["name"], results["written"])]
    return [json.dumps(_sanitize(results["system"]), indent=2, sort_keys=True)]


def _add_common(p):
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: ARTIFACT_SEED or 0)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                   help="ambient tensor dimension cap")


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one in the process; parsing never changes it."""
    p = argparse.ArgumentParser(
        prog="involutive",
        description="involutivity analysis of tableau-defined PDE systems",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser(
        "tableau",
        help="prolongations, characters, Cartan test",
        description="Report prolongations, characters and the Cartan test. "
        "The Cartan verdict is the cartan_test certificate; the exit code is "
        "0 whether or not the tableau is involutive.",
    )
    t.add_argument("file")
    t.add_argument("--characters", action="store_true",
                   help="also show the coordinate-flag partial sums")
    t.add_argument("--prolong", type=int, metavar="H",
                   help="compute dims of A^(0..H)")
    t.add_argument("--involutive-index", action="store_true",
                   help="least order k <= --max-order at which A^(k) passes "
                   "the Cartan test; order h is tested against dim A^(h+1)")
    t.add_argument("--max-order", type=int, default=6,
                   help="highest order the index search tests")
    _add_common(t)
    t.set_defaults(func=cmd_tableau, human=_human_tableau)

    s = sub.add_parser("spencer", help="Spencer cohomology table")
    s.add_argument("file")
    s.add_argument("--q-max", type=int, default=2)
    s.add_argument("--p-max", type=int, default=None)
    s.add_argument("--two-acyclic", action="store_true")
    s.add_argument("--harmonic", action="store_true")
    _add_common(s)
    s.set_defaults(func=cmd_spencer, human=_human_spencer)

    y = sub.add_parser("system", help="regularity checks and tower chain")
    y.add_argument("file")
    y.add_argument("--check", action="store_true",
                   help="run the two regularity certificates")
    y.add_argument("--tower", type=int, metavar="H", default=None,
                   help="build the chain S_(1..H+1)")
    y.add_argument("--structure", action="store_true",
                   help="verify the structure equations (needs --tower)")
    _add_common(y)
    y.set_defaults(func=cmd_system, human=_human_system)

    c = sub.add_parser("cauchy", help="formal power-series solution")
    c.add_argument("system")
    c.add_argument("data")
    c.add_argument("--degree", type=int, default=6)
    c.add_argument("--verify", action="store_true")
    c.add_argument("--polar", action="store_true")
    c.add_argument("--max-order", type=int, default=6)
    c.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    _add_common(c)
    c.set_defaults(func=cmd_cauchy, human=_human_cauchy)

    e = sub.add_parser("examples", help="write a built-in fixture")
    e.add_argument("name", choices=EXAMPLE_NAMES)
    e.add_argument("--out", default=None)
    _add_common(e)
    e.set_defaults(func=cmd_examples, human=_human_examples)

    return p


def _environment_seed():
    """The ARTIFACT_SEED environment variable as an int, 0 when unset;
    InputError when it is not an integer."""
    text = os.environ.get("ARTIFACT_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InputError("ARTIFACT_SEED must be an integer, got %r" % text) from None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.input_digest = {}
    start = time.perf_counter()
    retry_seed = False
    try:
        if args.seed is None:
            args.seed = _environment_seed()
        if args.max_dim < 1:
            raise InputError("--max-dim must be >= 1, got %d" % args.max_dim)
        passed, results, certificates = args.func(args)
        code = 0 if passed else 1
        error = None
    except CapExceeded as exc:
        passed, results, certificates = False, {}, []
        code, error = 3, str(exc)
    except InputError as exc:
        passed, results, certificates = False, {}, []
        code, error = 2, str(exc)
    except InvolutiveError as exc:
        passed, results, certificates = False, {}, []
        code, error = 1, str(exc)
        retry_seed = isinstance(exc, UnstableGenericity)
    elapsed = time.perf_counter() - start
    report = {
        "command": args.command,
        "seed": args.seed,
        "input_digest": args.input_digest if error is None else {},
        "results": _sanitize(results),
        "certificates": _sanitize(certificates),
        "timing_seconds": round(elapsed, 6),
    }
    if error is not None:
        report["error"] = error
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if error is not None:
            print("error: %s" % error, file=sys.stderr)
            if retry_seed:
                print("hint: retry with a different --seed", file=sys.stderr)
        else:
            for line in args.human(report["results"]):
                print(line)
            print(
                "[%s] %s in %.3fs"
                % (args.command, "ok" if passed else "CHECK FAILED", elapsed)
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
