"""CLI surface: payloads, exit codes, determinism, file round trips."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path
from time import perf_counter

import pytest

from subposet import chains, cli, containment
from subposet.constructions import construct_rst_induced, construct_rt
from subposet.containment import contains_subposet
from subposet.lattice import SetFamily, level, parse_family, serialize_family
from subposet.posets import chain_poset

from test_solve_pool import solve_pool


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


def test_solve_cap_is_checked_at_the_command_line(capsys):
    # the library has no soft cap; the CLI refuses n > --cap (default 5)
    code, doc, _ = run_cli(["solve", "6", "--poset", "P2"], capsys)
    assert code == cli.EXIT_USAGE
    assert doc["payload"]["error"] == "solver capped at n <= 5, got n=6 (raise --cap to override)"
    code, doc, _ = run_cli(["solve", "6", "--poset", "P2", "--cap", "6"], capsys)
    assert code == cli.EXIT_OK
    payload = doc["payload"]
    assert (payload["optimum"], payload["nodes"], payload["exhausted"]) == (20, "20", True)


def test_break_symmetry_changes_no_solve(capsys):
    # --break-symmetry is accepted and has no effect: every pattern set of the
    # benchmark's solve pool prints the same payload at n = 4 with it
    pattern_sets = {(tuple(spec for spec, _ in job["patterns"]), job["induced"])
                    for job in solve_pool().values()}
    for specs, induced in sorted(pattern_sets):
        argv = ["solve", "4", *(arg for spec in specs for arg in ("--poset", spec))]
        argv += ["--induced"] * induced
        runs = [run_cli(argv + flag, capsys) for flag in ([], ["--break-symmetry"])]
        assert runs[0][0] == runs[1][0] == cli.EXIT_OK
        assert runs[0][1]["payload"] == runs[1][1]["payload"]


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
    monkeypatch.setattr(chains, "s_minus", lambda *args: pytest.fail("precondition ran"))
    for mode, params in (("minr", ["--r", "2"]), ("minrmaxt", ["--r", "2", "--t", "2"])):
        code, doc, _ = run_cli(["chains", mode, str(fam_file), *params, "--chain-cap", "11"],
                               capsys)
        assert code == 2
        assert "chain enumeration capped" in doc["payload"]["error"]


def test_chain_cap_flag_only_lowers_the_hard_cap(tmp_path, capsys, monkeypatch):
    # without --chain-cap the CLI reaches the library's hard cap of 16, and
    # the library functions, which take no cap, print the same payloads
    fam = construct_rt(10, 2, 2)
    monkeypatch.chdir(tmp_path)
    Path("rt10.txt").write_text(serialize_family(fam))
    runs = {
        ("pairs",): {"formula": str(chains.count_pairs_formula(fam)),
                     "enumerated": str(chains.count_pairs_enumerated(fam)), "match": True},
        ("minmax",): chains.min_max_partition(fam).payload(),
        ("minr", "--r", "2"): chains.min_r_partition(fam, 2).payload(),
        ("minrmaxt", "--r", "2", "--t", "2"): chains.minr_maxt_partition(fam, 2, 2).payload(),
    }
    for (mode, *params), want in runs.items():
        code, doc, _ = run_cli(["chains", mode, "rt10.txt", *params, "--chain-cap", "10"], capsys)
        assert (code, doc["payload"]) == (0, want)
    code, doc, _ = run_cli(["chains", "minmax", "rt10.txt"], capsys)
    assert (code, doc["payload"]) == (0, runs[("minmax",)])
    code, doc, _ = run_cli(["chains", "minmax", "rt10.txt", "--chain-cap", "9"], capsys)
    assert code == cli.EXIT_USAGE
    assert doc["payload"]["error"] == "chain enumeration capped at n <= 9, got n=10"


def test_chains_at_larger_n(tmp_path, capsys):
    fam = construct_rt(12, 2, 2)
    fam_file = tmp_path / "rt12.txt"
    fam_file.write_text(serialize_family(fam))
    argv = ["chains", "minrmaxt", str(fam_file), "--r", "2", "--t", "2", "--chain-cap", "12"]
    code, doc, _ = run_cli(argv, capsys)
    assert code == 0
    assert doc["payload"]["total_chains"] == str(factorial(12))
    assert doc["payload"]["total_pairs"] == str(chains.count_pairs_formula(fam))

    for n, code_want in ((16, 0), (17, 2)):
        fam_file = tmp_path / f"pair{n}.txt"
        fam_file.write_text(serialize_family(SetFamily.of(n, [0, 1, 3])))
        code, doc, _ = run_cli(["chains", "pairs", str(fam_file), "--chain-cap", str(n)], capsys)
        assert code == code_want
    assert doc["payload"]["error"] == "chain enumeration capped at n <= 16, got n=17"


# sha256 of the whole stdout of each partition at n = 10, where the walk
# oracle cannot go; taken while each first marker's interval DP still ran
# over every superset, so they pin the bounded DP and the label rendering
CHAINS_STDOUT_SHA256 = {
    ("rt10_22", "minmax"): "59f131c2e8dc5605ab62aab02e52c19ef4017cbba31afa066b520e590f5cf10f",
    ("rt10_22", "minr"): "e6628ed30b8ef0e4ed89942619768c299a4c668275449b3c41b0fe2817aa624b",
    ("rt10_22", "minrmaxt"): "0add3195f172bbb464ed0f24ccdec3a3ba3c308785dd5eb949852865e045b3ba",
    ("rsti10_222", "minmax"): "59f2f865345f8378f53bf41ea25404fee9196bcd946452420d065b12bc42c4c9",
    ("rsti10_222", "minr"): "b402b8f16b875248a42c278de74ec3343a55d84c82b6465c4cbca963a6f4a2bb",
    ("rsti10_222", "minrmaxt"): "b06de3c677365b5e47beebecae60290388835dd4e0afd89beab6f4dfde753118",
}


@pytest.mark.parametrize("name, mode", sorted(CHAINS_STDOUT_SHA256))
def test_chains_stdout_digests(tmp_path, capsys, monkeypatch, name, mode):
    fam = construct_rt(10, 2, 2) if name == "rt10_22" else construct_rst_induced(10, 2, 2, 2)
    monkeypatch.chdir(tmp_path)  # the family path is part of the printed parameters
    Path(f"{name}.txt").write_text(serialize_family(fam))
    extra = {"minmax": [], "minr": ["--r", "2"], "minrmaxt": ["--r", "2", "--t", "2"]}[mode]
    code, _, out = run_cli(["chains", mode, f"{name}.txt", *extra, "--chain-cap", "10"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHAINS_STDOUT_SHA256[name, mode]


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


@pytest.mark.parametrize("spec, poset_text, message", [
    ("P" + "9" * 5000, None, "chain needs 1 to 2000 elements, got 5000 digits"),
    ("K[" + "9" * 5000 + "]", None, "width of 5000 digits is too large"),
    ("K[2," + "9" * 5000 + "]", None, "width of 5000 digits is too large"),
    ("K[" + "9" * 4300 + "," + "9" * 4300 + "]", None,
     "widths sum to more than the cap of 2000 elements"),
    (None, "elements=" + "9" * 5000 + "\n", "line 1: need 1 to 2000 elements, got 5000 digits"),
    (None, "elements=3\n1<" + "9" * 5000 + "\n",
     "line 2: element of 5000 digits out of range [1, 3]"),
])
def test_check_refuses_an_overlong_number_in_a_pattern(tmp_path, capsys, spec, poset_text,
                                                       message):
    # past Python's 4,300-digit int limit, each reader names its own range;
    # two widths within it have a sum past it
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=2\n{1}\n{1,2}\n")
    if poset_text is not None:
        spec = tmp_path / "big.txt"
        spec.write_text(poset_text)
    code, doc, _ = run_cli(["check", str(fam_file), "--poset", str(spec)], capsys)
    assert code == cli.EXIT_USAGE
    assert doc["payload"]["error"] == message


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
    (["rt", "6", "2", "9"], "K[2,9]"),
    (["rst", "9", "12", "2", "2"], "K[12,2,2]"),
    (["rst-ind", "9", "11", "2", "2"], "K[11,2,2]"),
    (["ind", "9", "2", "2", "2", "11"], "K[2,2,2,11]")])
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


@pytest.mark.parametrize("stderr", ["full", "closed"])
def test_unwritable_stderr_keeps_the_usage_exit(stderr, tmp_path):
    # the error line of a usage error is best effort: a full or closed stderr
    # still exits 2 with the one JSON line on stdout, never 4
    if stderr == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "subposet.cli", "check", str(tmp_path / "nope.txt"),
            "--poset", "P2"]
    if stderr == "full":
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=full, env=env, timeout=60)
    else:
        proc = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", *argv],
                              stdout=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_USAGE
    line, = proc.stdout.decode().splitlines()
    assert "nope.txt" in json.loads(line)["payload"]["error"]
