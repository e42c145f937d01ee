"""CLI surface: payloads, exit codes, determinism, file round trips."""

import argparse
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path
from time import perf_counter

import pytest

from subposet import chains, cli, containment
from subposet.constructions import construct_rt
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


@pytest.mark.parametrize("s, ends", [("5", "-3"), ("9", "4")])
def test_mheight_rejects_impossible_ends(capsys, s, ends):
    code, doc, _ = run_cli(["mheight", s, "--ends", ends], capsys)
    assert code == 2
    assert "need ends in 0..2" in doc["payload"]["error"]


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


def test_rt12_induced_butterfly_free_within_budget(tmp_path, capsys):
    # about 10^5 nodes once the band is searched up to symmetry
    fam_file = tmp_path / "rt12.txt"
    fam_file.write_text(serialize_family(construct_rt(12, 2, 2)))
    argv = ["check", str(fam_file), "--poset", "butterfly", "--induced", "--budget", "1000000"]
    code, doc, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    assert doc["payload"]["free"] is True


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=2\n{1}\n{1,2}\n")
    for argv in (["check", str(fam_file), "--poset", "P2", "--budget", "-3"],
                 ["check", str(fam_file), "--poset", "P3", "--budget", "-3"],
                 ["solve", "3", "--poset", "P2", "--budget", "-1"]):
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert "budget must be non-negative" in json.loads(out)["payload"]["error"]
        assert err.startswith("error: ") and err.count("\n") == 1
    # budget 0 still means no search node may be spent
    code, doc, _ = run_cli(["check", str(fam_file), "--poset", "P2", "--budget", "0"], capsys)
    assert code == cli.EXIT_BUDGET and doc["payload"]["nodes"] == "0"
    code, doc, _ = run_cli(["solve", "3", "--poset", "P2", "--budget", "0"], capsys)
    assert code == cli.EXIT_BUDGET and doc["payload"]["optimum"] == 0


def test_solve_refuses_lattices_over_the_relation_cap_at_once(capsys):
    # 2^40 candidate sets: refused before any candidate list is built
    assert cli.main(["solve", "40", "--poset", "P2", "--cap", "40"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert "2^40 candidate sets" in json.loads(out)["payload"]["error"]
    assert err.startswith("error: ") and err.count("\n") == 1


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
    monkeypatch.setattr(chains, "s_minus", lambda rels, mask: pytest.fail("precondition ran"))
    for mode, params in (("minr", ["--r", "2"]), ("minrmaxt", ["--r", "2", "--t", "2"])):
        code, doc, _ = run_cli(["chains", mode, str(fam_file), *params], capsys)
        assert code == 2
        assert "chain enumeration capped" in doc["payload"]["error"]


def test_chains_at_larger_n(tmp_path, capsys):
    fam = construct_rt(12, 2, 2)
    fam_file = tmp_path / "rt12.txt"
    fam_file.write_text(serialize_family(fam))
    argv = ["chains", "minrmaxt", str(fam_file), "--r", "2", "--t", "2", "--chain-cap", "12"]
    code, doc, _ = run_cli(argv, capsys)
    assert code == 0
    assert doc["payload"]["total_chains"] == str(factorial(12))
    assert doc["payload"]["total_pairs"] == str(chains.count_pairs_formula(fam))

    for n, code_want in ((14, 0), (15, 2)):
        fam_file = tmp_path / f"pair{n}.txt"
        fam_file.write_text(serialize_family(SetFamily.of(n, [0, 1, 3])))
        code, doc, _ = run_cli(["chains", "pairs", str(fam_file), "--chain-cap", str(n)], capsys)
        assert code == code_want
    assert doc["payload"]["error"] == "chain enumeration capped at n <= 14, got n=15"


def test_internal_error_exit(tmp_path, capsys, monkeypatch):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=2\n{1}\n{1,2}\n")

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(containment, "contains_subposet", broken)
    code, doc, _ = run_cli(["check", str(fam_file), "--poset", "P2"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert doc["payload"] == {"error": "RuntimeError: boom"}


def test_oversized_family_is_a_usage_error(tmp_path, capsys):
    fam_file = tmp_path / "big.txt"
    fam_file.write_text(serialize_family(SetFamily.of(17, range(containment.MAX_MEMBERS + 1))))
    for argv in (["check", str(fam_file), "--poset", "P2"], ["chains", "pairs", str(fam_file)]):
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert "error" in json.loads(out)["payload"]
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


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
    # one include decision per subset of [10] on the current branch: the
    # first path's first 252 attempts reach Sperner's C(10, 5) = 252, which
    # Erdős's bound proves before the budget is checked again; a budget that
    # stops the first path short leaves its family as a lower bound
    for budget, want_code, optimum in (("252", cli.EXIT_OK, 252), ("251", cli.EXIT_BUDGET, 251)):
        code, doc, _ = run_cli(["solve", "10", "--cap", "10", "--poset", "P2", "--budget", budget],
                               capsys)
        assert code == want_code
        payload = doc["payload"]
        assert payload["exhausted"] is (code == cli.EXIT_OK) and payload["optimum"] == optimum
        assert payload["nodes"] == budget
        witness = parse_family(payload["witness"])
        assert witness.size == optimum
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


@pytest.mark.parametrize("text, message", [
    ("n=3\n{" + "9" * 5000 + "}\n", "line 2: element out of range [1, 3]"),
    ("# big\nn=" + "9" * 5000 + "\n{1}\n", "line 2: ground size of 5000 digits out of [1, 24]"),
])
def test_check_names_the_line_of_an_overlong_number(tmp_path, capsys, text, message):
    fam_file = tmp_path / "big.txt"
    fam_file.write_text(text)
    code, doc, _ = run_cli(["check", str(fam_file), "--poset", "P2"], capsys)
    assert code == cli.EXIT_USAGE
    assert doc["payload"]["error"].startswith(message)


def test_determinism(tmp_path, capsys):
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


def test_poset_spec_loading(tmp_path):
    assert cli.load_poset_spec("K[2,2]").size == 4
    assert cli.load_poset_spec("P3").size == 3
    assert cli.load_poset_spec("vee").size == 3
    pfile = tmp_path / "poset.txt"
    pfile.write_text("elements=2\n1<2\n")
    assert cli.load_poset_spec(str(pfile)).size == 2
    with pytest.raises(OSError):
        cli.load_poset_spec("no-such-poset")


@pytest.mark.parametrize("argv, named", [
    (["rt", "6", "2", "9"], "r=2, t=9"),
    (["rst", "9", "12", "2", "2"], "r=12, s=2, t=2"),
    (["rst-ind", "9", "11", "2", "2"], "r=11, s=2, t=2")])
def test_construct_names_the_given_widths(tmp_path, capsys, argv, named):
    # a fringe needs more residue classes than a level of B_n has
    assert cli.main(["construct", *argv, "-o", str(tmp_path / "x.txt")]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert named in json.loads(out)["payload"]["error"]
    assert err.startswith("error: ") and err.count("\n") == 1


def test_huge_patterns_are_refused_at_once(tmp_path, capsys):
    # each would build a per-element list of 10^9 entries before validating
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=2\n{1}\n{1,2}\n")
    poset_file = tmp_path / "huge.txt"
    poset_file.write_text("elements=1000000000\n")
    for spec in ("P1000000000", "K[1000000000]", str(poset_file)):
        start = perf_counter()
        assert cli.main(["check", str(fam_file), "--poset", spec]) == cli.EXIT_USAGE
        assert perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert "2000" in json.loads(out)["payload"]["error"]
        assert err.startswith("error: ") and err.count("\n") == 1


def exit_output(parse, argv, capsys):
    """(SystemExit code, stdout, stderr) of parsing argv that ends in help or
    a usage error."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


PARSE_EXITS = [[], ["--help"], ["bogus"], ["sigma", "8", "2", "--bogus"]]
for _name in cli.COMMANDS:
    PARSE_EXITS += [[_name, "--help"], [_name]]  # every command takes a positional


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=" ".join)
def test_help_and_usage_errors_match_the_full_parser(argv, capsys):
    # main builds only the named command's subparser, yet prints what the
    # full parser prints
    got = exit_output(cli.main, argv, capsys)
    want = exit_output(cli.build_parser().parse_args, argv, capsys)
    assert got == want
    assert want[0] == (0 if "--help" in argv else cli.EXIT_USAGE)


def test_parser_holds_only_the_named_command():
    def registered(parser):
        action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return list(action.choices)

    assert registered(cli.build_parser("solve")) == ["solve"]
    every = list(cli.COMMANDS)
    assert registered(cli.build_parser()) == registered(cli.build_parser("bogus")) == every


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["subposet", "sigma", "8", "2"])
    assert cli.main() == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["payload"] == {"value": "126"}


def run_sigma(stdout, prefix=()) -> tuple[int, bytes]:
    """``subposet sigma 8 2`` in a fresh process writing to ``stdout``, run
    through ``prefix``; its exit code and stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([*prefix, sys.executable, "-m", "subposet.cli", "sigma", "8", "2"],
                          stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
    return proc.returncode, proc.stderr


def test_closed_stdout_exits_internal_without_traceback():
    # the reader of the pipe is gone before the command writes: exit 4, not
    # 1 ("containment found"), and no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        code, err = run_sigma(write)
    finally:
        os.close(write)
    assert code == cli.EXIT_INTERNAL
    assert b"Traceback" not in err


def test_unwritable_or_missing_stdout_gives_no_traceback():
    # a full device fails the write as a closed pipe does; with no stdout at
    # all the print is dropped and the call succeeds
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            assert run_sigma(full) == (cli.EXIT_INTERNAL, b"")
    assert run_sigma(None, ("sh", "-c", 'exec "$@" >&-', "sh")) == (cli.EXIT_OK, b"")
