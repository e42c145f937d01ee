"""The benchmark's solve pool (perfbench/workloads.py) run through the CLI:
exit code, optimum, include attempts, exhausted and witness of every job are
pinned, so a change to the solver's walk must keep every answer."""

import importlib.util
import json
from pathlib import Path

import pytest

from subposet import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# Witnesses as their sets, in the canonical (size, mask) order.
PAIRS4 = "12 13 23 14 24 34"
ONE_TWO4 = "1 2 3 4 " + PAIRS4
PAIRS5 = "12 13 23 14 24 34 15 25 35 45"

# job -> (exit code, optimum, attempts, exhausted, witness); the jobs whose
# patterns include a chain (n4.P2, n4.P3, ...) end proven by Erdős's bound as
# soon as the first path reaches it, one attempt per member
EXPECTED = {
    "n4.K121": (0, 10, 1699, True, ONE_TWO4),
    "n4.K121+butterfly": (0, 10, 638, True, ONE_TWO4),
    "n4.K121+butterfly.ind": (0, 10, 1019, True, ONE_TWO4),
    "n4.K121+vee": (0, 7, 916, True, PAIRS4 + " 123"),
    "n4.K121+wedge.ind": (0, 8, 1506, True, "{} 1 " + PAIRS4),
    "n4.K121.ind": (0, 10, 1699, True, ONE_TWO4),
    "n4.K22.ind": (0, 14, 220, True, "{} 1 2 3 " + PAIRS4 + " 124 134 234 1234"),
    "n4.P2": (0, 6, 6, True, PAIRS4),
    "n4.P3": (0, 10, 10, True, ONE_TWO4),
    "n4.P3+K22.ind": (0, 10, 10, True, ONE_TWO4),
    "n4.P3+butterfly": (0, 10, 10, True, ONE_TWO4),
    "n4.P3+vee": (0, 7, 916, True, PAIRS4 + " 123"),
    "n4.P3+wedge": (0, 7, 1100, True, "1 " + PAIRS4),
    "n4.P3.ind": (0, 10, 10, True, ONE_TWO4),
    "n4.butterfly": (0, 10, 911, True, ONE_TWO4),
    "n4.vee": (0, 7, 916, True, PAIRS4 + " 123"),
    "n4.vee+butterfly": (0, 7, 916, True, PAIRS4 + " 123"),
    "n4.vee+wedge": (0, 6, 753, True, PAIRS4),
    "n4.vee+wedge.ind": (0, 6, 1195, True, PAIRS4),
    "n4.vee.ind": (0, 8, 599, True, PAIRS4 + " 123 1234"),
    "n4.wedge": (0, 7, 1100, True, "1 " + PAIRS4),
    "n4.wedge+butterfly": (0, 7, 1100, True, "1 " + PAIRS4),
    "n4.wedge.ind": (0, 8, 1506, True, "{} 1 " + PAIRS4),
    "n5.P2": (0, 10, 10, True, PAIRS5),
    "n5.butterfly.budget20000": (
        3, 20, 20000, False, PAIRS5 + " 123 124 134 234 125 135 235 145 245 345"),
}


def solve_pool():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOLVE


def compact(witness: str) -> str:
    """'n=4\\n{1,2}\\n{}\\n' -> '12 {}' (every element is one digit here)."""
    sets = witness.splitlines()[1:]
    return " ".join(s.strip("{}").replace(",", "") or "{}" for s in sets)


def test_table_covers_the_pool():
    assert sorted(solve_pool()) == sorted(EXPECTED)


@pytest.mark.parametrize("job_id", sorted(EXPECTED))
def test_solve_job_answers(job_id, capsys):
    code = cli.main(solve_pool()[job_id]["argv"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    got = (code, payload["optimum"], int(payload["nodes"]), payload["exhausted"],
           compact(payload["witness"]))
    assert got == EXPECTED[job_id]
