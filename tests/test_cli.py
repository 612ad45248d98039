"""End-to-end checks of the command line interface."""

import json
from fractions import Fraction

import pytest

from involutive.cauchy import CauchyData
from involutive.cli import EXAMPLE_NAMES, main
from involutive.poly import Polynomial
from involutive.systems import System
from involutive.tableau import Tableau


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


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_every_subcommand_on_every_example(name, tmp_path, capsys):
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
        assert all(c["passed"] for c in report["certificates"]), argv


def test_max_degree_raises_the_series_cap(tmp_path, capsys):
    path, data = example_files(tmp_path, "wavemap:abelian")
    argv = ["cauchy", path, data, "--degree", "13"]
    assert main(argv) == 3
    assert main(argv + ["--max-degree", "13"]) == 0


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


def test_missing_file_is_exit_two(capsys):
    assert main(["tableau", "/nonexistent/tableau.json"]) == 2


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
