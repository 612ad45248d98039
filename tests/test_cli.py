"""End-to-end checks of the command line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from involutive import bases
from involutive.bases import sym_basis
from involutive.cauchy import CauchyData
from involutive.cli import EXAMPLE_NAMES, build_parser, main
from involutive.poly import Polynomial
from involutive.systems import System
from involutive.tableau import Tableau
from test_spencer import infinite_type_tableau


@pytest.fixture()
def wavemap_file(tmp_path):
    path = tmp_path / "wavemap_su2.json"
    assert main(["examples", "wavemap:su2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def data_file(tmp_path):
    blocks = [
        [
            Polynomial(1, {(0,): Fraction(i + 1), (1,): Fraction(1, i + 2)})
            for i in range(6)
        ]
    ]
    data = CauchyData([0, 0], [], blocks)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data.to_json_dict()))
    return str(path)


def example_files(tmp_path, name):
    """A built-in example and Cauchy data for it: every built-in example
    is involutive with s = (dim A, 0, ...), so one block of dim A series."""
    path = tmp_path / (name.replace(":", "_") + ".json")
    assert main(["examples", name, "--out", str(path)]) == 0
    t = System.from_json_dict(json.loads(path.read_text())).tableau
    block = [
        Polynomial(1, {(0,): Fraction(i + 1), (1,): Fraction(1, i + 2)})
        for i in range(t.dim)
    ]
    data = tmp_path / "data.json"
    data.write_text(json.dumps(CauchyData([0] * t.a_dim, [], [block]).to_json_dict()))
    return str(path), str(data)


def index_one_files(tmp_path):
    """Phi = 0 over the tableau of one generator in Hom(Q^3, Q^3), with
    characters (1, 0, 0) and A^(1) = 0, so involutive index k = 1, and
    Cauchy data for it."""
    path = tmp_path / "index_one.json"
    path.write_text(json.dumps({
        "a_dim": 3, "b_dim": 3,
        "generators": [[[0, 2, -1], [2, 0, 0], [2, 0, 1]]], "phi": {},
    }))
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"x0": [0, 0, 0], "P_const": [["3"]], "P_blocks": {}}))
    return str(path), str(data)


def infinite_type_files(tmp_path):
    """Phi = 0 over infinite_type_tableau, and Cauchy data for it: one
    constant level and one block of five one-variable series."""
    path = tmp_path / "infinite_type.json"
    path.write_text(json.dumps(System(infinite_type_tableau(), {}).to_json_dict()))
    block = [
        Polynomial(1, {(0,): Fraction(i + 1), (1,): Fraction(1, i + 2)})
        for i in range(5)
    ]
    data = tmp_path / "data.json"
    data.write_text(json.dumps(
        CauchyData([0] * 4, [[1, 0, 2, 0, -1]], [block]).to_json_dict()
    ))
    return str(path), str(data)


@pytest.mark.parametrize("name", EXAMPLE_NAMES + ("index-one", "infinite-type"))
def test_every_subcommand_on_every_example(name, tmp_path, capsys):
    if name == "index-one":
        path, data = index_one_files(tmp_path)
    elif name == "infinite-type":
        path, data = infinite_type_files(tmp_path)
    else:
        path, data = example_files(tmp_path, name)
    for argv in (
        ["tableau", path, "--prolong", "1", "--characters", "--involutive-index"],
        ["spencer", path, "--q-max", "1", "--two-acyclic", "--harmonic"],
        ["system", path, "--check", "--tower", "1", "--structure"],
        ["cauchy", path, data, "--degree", "2", "--verify", "--polar"],
    ):
        capsys.readouterr()
        assert main(argv + ["--json"]) == 0, argv
        report = json.loads(capsys.readouterr().out)
        assert report["certificates"], argv
        if name == "index-one" and argv[0] == "tableau":
            # order 0 is voted not involutive, order 1 is proved by a
            # witness flag; tableau reports the failed test and exits 0
            results = report["results"]
            assert results["characters"] == [1, 0, 0]
            assert results["involutive_index"] == 1
            assert results["involutive_characters"] == [0, 0, 0]
            assert [c["passed"] for c in report["certificates"]] == [False]
            continue
        if name == "infinite-type" and argv[0] == "tableau":
            # order 0 is not involutive, order 1 is, with s != 0 at k = 1
            results = report["results"]
            assert results["characters"] == [4, 1, 0, 0]
            assert results["prolongation_dims"] == [5, 5]
            assert results["involutive_index"] == 1
            assert results["involutive_characters"] == [5, 0, 0, 0]
            assert [c["passed"] for c in report["certificates"]] == [False]
            continue
        assert all(c["passed"] for c in report["certificates"]), argv
        if name in ("index-one", "infinite-type") and argv[0] == "cauchy":
            assert report["results"]["k"] == 1
    if name == "infinite-type":
        # the curl slices at the top level have unknowns here
        capsys.readouterr()
        argv = ["cauchy", path, data, "--degree", "3", "--verify", "--polar", "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        results = report["results"]
        assert (results["k"], results["s"]) == (1, [5, 0, 0, 0])
        assert results["polar_dims"] == [9, 4, 4, 4, 4]
        assert results["restricted_polar"] == [True] * 4
        assert results["residual"]["clean"] is True
        assert results["residual"]["first_failure"] is None
        assert all(c["passed"] for c in report["certificates"])


def test_production_builds_no_dense_contraction(wavemap_file, data_file, capsys):
    # every contraction is a gather through bases.sym_raise and the Spencer
    # differential is read off Tableau.contraction; the dense contraction
    # and Koszul matrices are only the reference the tests compare against
    dense = (bases.contraction_matrix_sym, bases.contraction_matrix,
             bases.koszul_delta_full)
    for cache in dense:
        cache.cache_clear()
    for argv in (
        ["system", wavemap_file, "--check", "--tower", "2", "--structure"],
        ["cauchy", wavemap_file, data_file, "--verify", "--polar"],
        ["spencer", wavemap_file, "--two-acyclic", "--harmonic"],
    ):
        assert main(argv) == 0, argv
    assert [cache.cache_info().misses for cache in dense] == [0, 0, 0]


def test_production_names_no_contract_vector():
    # the Cauchy layer reads Tableau.contraction too; contract_vector is
    # only the reference the tests compare against
    package = os.path.dirname(bases.__file__)
    users = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "bases.py":
            with open(os.path.join(package, name)) as fh:
                if "contract_vector" in fh.read():
                    users.append(name)
    assert users == []


def test_max_degree_raises_the_series_cap(tmp_path, capsys):
    path, data = example_files(tmp_path, "wavemap:abelian")
    argv = ["cauchy", path, data, "--degree", "13"]
    assert main(argv) == 3
    assert main(argv + ["--max-degree", "13"]) == 0


def test_max_dim_is_the_ambient_dimension_needed(tmp_path, capsys):
    path, data = example_files(tmp_path, "wavemap:su2")
    with open(path) as fh:
        t = System.from_json_dict(json.load(fh)).tableau
    r = t.b_dim

    def sym(p):
        return sym_basis(t.a_dim, p).size

    # --max-order 6 tests A^(6) against dim A^(7) = dim (A^(6))^(1), whose
    # ambient is r * |S^8|; H^{1,p} needs A^(1); a tower of order 1 needs A^(2).
    index_order = ["--max-order", "6"]
    for argv, need in (
        (["tableau", path, "--prolong", "1", "--involutive-index"] + index_order,
         r * sym(8)),
        (["spencer", path, "--q-max", "1", "--two-acyclic", "--harmonic"],
         r * sym(2)),
        (["system", path, "--check", "--tower", "1", "--structure"], r * sym(3)),
        (["cauchy", path, data, "--degree", "2", "--verify", "--polar"] + index_order,
         r * sym(8)),
    ):
        assert main(argv + ["--max-dim", str(need)]) == 0, argv
        capsys.readouterr()
        assert main(argv + ["--max-dim", str(need - 1), "--json"]) == 3, argv
        error = json.loads(capsys.readouterr().out)["error"]
        assert "dimension %d exceeds cap %d" % (need, need - 1) in error, argv


def test_examples_cover_all_fixtures(tmp_path):
    for name in ("gg0:sl3", "gg0:sl2", "wavemap:su2", "wavemap:abelian"):
        out = tmp_path / (name.replace(":", "_") + ".json")
        assert main(["examples", name, "--out", str(out)]) == 0
        sys_ = System.from_json_dict(json.loads(out.read_text()))
        assert sys_.tableau.dim >= 1


def test_tableau_command_json(wavemap_file, capsys):
    code = main(
        [
            "tableau", wavemap_file, "--prolong", "2", "--involutive-index",
            "--characters", "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "tableau"
    assert report["results"]["prolongation_dims"] == [6, 6, 6]
    assert report["results"]["characters"] == [6, 0]
    assert report["results"]["involutive"] is True
    assert report["results"]["involutive_index"] == 0
    assert report["results"]["coordinate_flag_partial_sums"] == [3, 6]
    assert report["certificates"][0]["name"] == "cartan_test"
    assert wavemap_file in report["input_digest"]


def test_tableau_human_and_json_agree(wavemap_file, capsys):
    main(["tableau", wavemap_file, "--prolong", "2", "--json"])
    report = json.loads(capsys.readouterr().out)
    main(["tableau", wavemap_file, "--prolong", "2"])
    human = capsys.readouterr().out
    dims = ", ".join(str(d) for d in report["results"]["prolongation_dims"])
    assert dims in human
    chars = ", ".join(str(x) for x in report["results"]["characters"])
    assert "(%s)" % chars in human


def test_spencer_command(wavemap_file, capsys):
    code = main(
        ["spencer", wavemap_file, "--q-max", "2", "--two-acyclic", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    table = report["results"]["H_dims"]
    assert all(v == 0 for row in table.values() for v in row.values())
    assert report["results"]["two_acyclic"] is True


def test_system_command(wavemap_file, capsys):
    code = main(
        ["system", wavemap_file, "--check", "--tower", "1", "--structure", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["phi_in_B02"]["passed"] is True
    assert report["results"]["torsion_condition"]["passed"] is True
    names = [c["name"] for c in report["certificates"]]
    assert "structure_equations" in names
    assert all(c["passed"] for c in report["certificates"])


def test_cauchy_command(wavemap_file, data_file, capsys):
    code = main(
        [
            "cauchy", wavemap_file, data_file, "--degree", "4", "--verify",
            "--polar", "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["k"] == 0
    assert report["results"]["residual"]["clean"] is True
    assert report["results"]["polar_dims"] == [8, 2, 2]
    assert report["results"]["restricted_polar"] == [True, True]
    assert len(report["input_digest"]) == 2


def test_cauchy_reports_first_failure_through_degree(wavemap_file, data_file, capsys):
    # first_failure is looked for through --degree, one above the checked
    # degrees: the degree-6 truncation term leaves the residual clean and
    # the exit code 0.  Reporting failures only within the checked degrees
    # would flip the last assertion.
    code = main(
        ["cauchy", wavemap_file, data_file, "--degree", "6", "--verify", "--json"]
    )
    assert code == 0
    residual = json.loads(capsys.readouterr().out)["results"]["residual"]
    assert residual["clean"] is True
    assert residual["max_degree_checked"] == 5
    assert residual["first_failure"]["degree"] == 6


def test_missing_file_is_exit_two(capsys):
    assert main(["tableau", "/nonexistent/tableau.json"]) == 2
    assert main(["tableau", "/nonexistent/tableau.json", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["input_digest"] == {} and "cannot read" in report["error"]


def test_input_digest_is_the_sha256_of_the_parsed_file(wavemap_file, data_file, capsys):
    # each input file is read once; the digest is taken of the bytes parsed
    want = {}
    for path in (wavemap_file, data_file):
        with open(path, "rb") as fh:
            want[path] = hashlib.sha256(fh.read()).hexdigest()
    argv = ["cauchy", wavemap_file, data_file, "--degree", "2", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["input_digest"] == want
    assert main(["tableau", wavemap_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["input_digest"] == {
        wavemap_file: want[wavemap_file]
    }


def test_malformed_json_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["tableau", str(bad)]) == 2


def test_failed_check_is_exit_one(tmp_path, capsys):
    t = Tableau(2, 2, [[[1, 0], [0, 0]]])
    sys_ = System(t, {(1, 0, 1): Polynomial.constant(3, 1)})
    path = tmp_path / "bad_system.json"
    path.write_text(json.dumps(sys_.to_json_dict()))
    assert main(["system", str(path), "--check"]) == 1


def test_degree_cap_is_exit_three(wavemap_file, data_file, capsys):
    code = main(["cauchy", wavemap_file, data_file, "--degree", "11"])
    assert code == 3


def test_seed_from_environment(wavemap_file, capsys, monkeypatch):
    monkeypatch.setenv("ARTIFACT_SEED", "7")
    assert main(["tableau", wavemap_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7


def test_zero_tableau_report(tmp_path, capsys):
    t = Tableau(2, 3, [])
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(t.to_json_dict()))
    code = main(["tableau", str(path), "--involutive-index", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["characters"] == [0, 0]
    assert report["results"]["involutive_index"] == 0


def test_tableau_reports_cartan_verdict_and_exits_zero(tmp_path, capsys):
    # the documented contract: the verdict lives in the certificate
    t = Tableau(2, 2, [[[0, 1], [-1, 0]]])
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(t.to_json_dict()))
    assert main(["tableau", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["involutive"] is False
    assert report["certificates"] == [
        {"name": "cartan_test", "passed": False, "method": "generic_flags(samples=5, seed=0)"}
    ]


def test_report_json_round_trips(wavemap_file, capsys):
    main(["system", wavemap_file, "--check", "--json"])
    out = capsys.readouterr().out
    assert json.loads(json.dumps(json.loads(out))) == json.loads(out)


def without_timing(text):
    """CLI output with its one timing figure blanked out."""
    text = re.sub(r'"timing_seconds": [0-9.e-]+', '"timing_seconds": _', text)
    return re.sub(r"in [0-9.]+s$", "in _s", text, flags=re.M)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_main_calls_give_identical_reports(wavemap_file, data_file, capsys):
    runs = [
        ["tableau", wavemap_file, "--json"],
        ["tableau", wavemap_file],
        ["system", wavemap_file, "--check", "--json"],
        ["cauchy", wavemap_file, data_file, "--degree", "3", "--verify", "--json"],
        ["examples", "wavemap:abelian"],
    ]
    # the reference: each command on a parser built just before it
    reference = []
    for argv in runs:
        build_parser.cache_clear()
        capsys.readouterr()
        code = main(argv)
        reference.append((code, without_timing(capsys.readouterr().out)))
    # a bad flag, a top-level and a subcommand --help leave the shared
    # parser as it was, and so do non-default options of earlier calls
    with pytest.raises(SystemExit) as bad:
        main(["tableau", wavemap_file, "--no-such-flag"])
    assert bad.value.code == 2
    for argv in (["--help"], ["cauchy", "--help"]):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
    main(["tableau", wavemap_file, "--prolong", "2", "--seed", "5", "--samples", "2"])
    parser = build_parser()
    for _ in range(2):
        for argv, (code, out) in zip(runs, reference):
            capsys.readouterr()
            assert main(argv) == code
            assert without_timing(capsys.readouterr().out) == out, argv
    assert build_parser() is parser


def test_python_dash_m_runs_the_cli(capsys):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "involutive", "examples", "wavemap:su2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("[examples] ok in ")
    system = System.from_json_dict(json.loads("\n".join(lines[:-1])))
    assert system.tableau.dim == 6
    assert main(["examples", "wavemap:su2"]) == 0
    assert without_timing(capsys.readouterr().out) == without_timing(proc.stdout)
