"""CLI surface: payloads, exit codes, determinism, file round trips."""

import json

import pytest

from subposet import chains, cli, containment
from subposet.containment import contains_subposet
from subposet.lattice import SetFamily, level, parse_family, serialize_family
from subposet.posets import chain_poset


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 1
    return code, json.loads(lines[0]), out


def test_sigma(capsys):
    code, doc, _ = run_cli(["sigma", "4", "2"], capsys)
    assert code == 0
    assert doc["command"] == "sigma"
    assert doc["payload"] == {"value": "10"}


def test_height_commands(capsys):
    assert run_cli(["aheight", "4"], capsys)[1]["payload"] == {"value": 4}
    assert run_cli(["mheight", "2"], capsys)[1]["payload"] == {"value": 2}
    assert run_cli(["mheight", "6", "--ends", "2"], capsys)[1]["payload"] == {"value": 3}
    assert run_cli(["ends", "3", "3"], capsys)[1]["payload"] == {"value": 2}


def test_estar_trace(capsys):
    code, doc, _ = run_cli(["estar", "K[1,1,2]"], capsys)
    assert code == 0
    assert doc["payload"] == {
        "value": 2,
        "ones_collapsed": 1,
        "reduced_signature": "K[1,2]",
    }


def test_classify_and_bounds(capsys):
    assert run_cli(["classify", "1", "6", "1"], capsys)[1]["payload"] == {"case": "Case2"}
    code, doc, _ = run_cli(["bounds", "nonind", "1", "6", "1"], capsys)
    assert doc["payload"] == {"case": "Case2", "lower": "3", "upper": "11/3"}
    code, doc, _ = run_cli(["bounds", "ind", "2", "4", "2", "--regime", "s4"], capsys)
    assert doc["payload"] == {"regime": "s4", "lower": "6", "upper": "6"}
    code, doc, _ = run_cli(["bounds", "ind", "1", "4", "1"], capsys)
    assert code == 2 and "error" in doc["payload"]


def test_coeff(capsys):
    assert run_cli(["coeff", "three", "5"], capsys)[1]["payload"] == {"value": "19/5"}
    assert run_cli(["coeff", "capped", "1", "--s", "2"], capsys)[1]["payload"] == {"value": "2"}
    code, doc, _ = run_cli(["coeff", "capped", "4"], capsys)
    assert code == 2


def test_construct_check_round_trip(tmp_path, capsys):
    out = tmp_path / "family.txt"
    code, doc, _ = run_cli(["construct", "rt", "8", "2", "2", "-o", str(out)], capsys)
    assert code == 0
    assert doc["payload"]["size"] == 137
    fam = parse_family(out.read_text())
    assert fam.size == 137
    assert serialize_family(fam) == out.read_text()

    code, doc, _ = run_cli(["check", str(out), "--poset", "K[2,2]", "--induced"], capsys)
    assert code == 0
    assert doc["payload"]["free"] is True

    code, doc, _ = run_cli(["check", str(out), "--poset", "P2"], capsys)
    assert code == 1
    assert doc["payload"]["free"] is False
    assert len(doc["payload"]["embedding"]) == 2


def test_check_budget_exit(tmp_path, capsys):
    out = tmp_path / "f.txt"
    run_cli(["construct", "rst-ind", "9", "2", "2", "2", "-o", str(out)], capsys)
    code, doc, _ = run_cli(
        ["check", str(out), "--poset", "K[2,2,2]", "--induced", "--budget", "10"], capsys
    )
    assert code == 3
    assert doc["payload"]["budget_exhausted"] is True


def test_solve(capsys):
    code, doc, _ = run_cli(["solve", "3", "--poset", "vee", "--poset", "wedge"], capsys)
    assert code == 0
    payload = doc["payload"]
    assert payload["optimum"] == 4 and payload["exhausted"] is True
    witness = parse_family(payload["witness"])
    assert witness.size == 4

    code, doc, _ = run_cli(["solve", "3", "--poset", "P2", "--budget", "2"], capsys)
    assert code == 3
    assert doc["payload"]["exhausted"] is False


def test_chains_commands(tmp_path, capsys):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=4\n{}\n{1,2,3,4}\n")
    code, doc, _ = run_cli(["chains", "pairs", str(fam_file)], capsys)
    assert doc["payload"] == {"formula": "48", "enumerated": "48", "match": True}

    code, doc, _ = run_cli(["chains", "minmax", str(fam_file)], capsys)
    labels = doc["payload"]["labels"]
    assert labels == {"AB:{}|{1,2,3,4}": {"chains": "24", "pairs": "48"}}

    code, doc, _ = run_cli(["chains", "minrmaxt", str(fam_file), "--r", "1", "--t", "1"], capsys)
    assert doc["payload"]["total_chains"] == "24"

    code, doc, _ = run_cli(["chains", "minr", str(fam_file)], capsys)
    assert code == 2

    code, doc, _ = run_cli(["chains", "minr", str(fam_file), "--r", "2"], capsys)
    assert code == 2  # no antichain of size 2: precondition error


def test_chain_cap_checked_before_precondition(tmp_path, capsys, monkeypatch):
    fam_file = tmp_path / "full12.txt"
    fam_file.write_text(serialize_family(SetFamily.of(12, range(1 << 12))))
    monkeypatch.setattr(chains, "max_antichain", lambda family: pytest.fail("precondition ran"))
    for mode, params in (("minr", ["--r", "2"]), ("minrmaxt", ["--r", "2", "--t", "2"])):
        code, doc, _ = run_cli(["chains", mode, str(fam_file), *params], capsys)
        assert code == 2
        assert "chain enumeration capped" in doc["payload"]["error"]


def test_internal_error_exit(tmp_path, capsys, monkeypatch):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=2\n{1}\n{1,2}\n")

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(containment, "contains_subposet", broken)
    code, doc, _ = run_cli(["check", str(fam_file), "--poset", "P2"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert doc["payload"] == {"error": "RuntimeError: boom"}


def test_large_induced_antichain_found(tmp_path, capsys):
    # one search depth per pattern element: 1200 levels, beyond Python's
    # default recursion limit
    fam_file = tmp_path / "level6.txt"
    fam_file.write_text(serialize_family(level(13, 6)))
    poset_file = tmp_path / "antichain.txt"
    poset_file.write_text("elements=1200\n")
    code, doc, _ = run_cli(["check", str(fam_file), "--poset", str(poset_file), "--induced"], capsys)
    assert code == cli.EXIT_VIOLATION
    witness = parse_family("n=13\n" + "\n".join(doc["payload"]["embedding"]))
    assert witness.size == 1200
    members = witness.members
    assert not any(a & b in (a, b) for i, a in enumerate(members) for b in members[i + 1:])


def test_deep_solve_returns_lower_bound(capsys):
    # one include decision per subset of [10] on the current branch
    code, doc, _ = run_cli(["solve", "10", "--cap", "10", "--poset", "P2", "--budget", "1100"], capsys)
    assert code == cli.EXIT_BUDGET
    payload = doc["payload"]
    assert payload["exhausted"] is False and payload["optimum"] == 252
    witness = parse_family(payload["witness"])
    assert witness.size == 252
    assert not contains_subposet(witness, chain_poset(2)).found


def test_lym(tmp_path, capsys):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=4\n{1}\n{1,2}\n")
    code, doc, _ = run_cli(["lym", str(fam_file)], capsys)
    assert doc["payload"] == {"value": "5/12"}


def test_usage_errors(tmp_path, capsys):
    code, doc, _ = run_cli(["sigma", "4", "9"], capsys)
    assert code == 2 and "error" in doc["payload"]
    missing = tmp_path / "missing.txt"
    code, doc, _ = run_cli(["lym", str(missing)], capsys)
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("n=2\n{3}\n")
    code, doc, _ = run_cli(["lym", str(bad)], capsys)
    assert code == 2 and "line 2" in doc["payload"]["error"]
    code, doc, _ = run_cli(["construct", "rt", "8", "2", "-o", str(tmp_path / "x")], capsys)
    assert code == 2


def test_determinism_and_threads_flag(tmp_path, capsys):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=4\n{1}\n{2}\n{1,2}\n{1,3}\n")
    outputs = set()
    for argv in (
        ["chains", "minrmaxt", str(fam_file), "--r", "1", "--t", "2"],
        ["chains", "minrmaxt", str(fam_file), "--r", "1", "--t", "2"],
    ):
        _, _, raw = run_cli(argv, capsys)
        outputs.add(raw)
    assert len(outputs) == 1
    # --threads is accepted and does not change the payload
    _, doc1, _ = run_cli(["--threads", "1", "solve", "3", "--poset", "P2"], capsys)
    _, doc8, _ = run_cli(["--threads", "8", "solve", "3", "--poset", "P2"], capsys)
    assert doc1["payload"] == doc8["payload"]


def test_poset_spec_loading(tmp_path):
    assert cli.load_poset_spec("K[2,2]").size == 4
    assert cli.load_poset_spec("P3").size == 3
    assert cli.load_poset_spec("vee").size == 3
    pfile = tmp_path / "poset.txt"
    pfile.write_text("elements=2\n1<2\n")
    assert cli.load_poset_spec(str(pfile)).size == 2
    with pytest.raises(OSError):
        cli.load_poset_spec("no-such-poset")
