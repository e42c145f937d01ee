"""Job pools of the four benchmark workloads.

Each pool holds 15 or 25 jobs. With a pool size G of 5 mod 10 and at least
two whole passes per run, the 50th and 90th latency percentiles fall inside
one job's group of samples instead of between two jobs of different cost, so
they do not jump when the number of passes changes. The jobs next to those
ranks were chosen with similar costs, so one slow sample moves them little.

A family is named once and built during set-up; the seed relabels its ground
set with a random permutation of [n]. Relabelling keeps every verdict, every
search node count and every chain count (checked while building the
benchmark), so one seed's inputs differ from another's while the work stays
the same.

Job fields:
  kind      "check", "solve", "chains" or "antichain" (library call, no CLI);
  argv      CLI arguments after the command, with "{family}" standing for
            the family file;
  family    the family name, if any;
  pattern   widths of the complete multilevel pattern (check jobs);
  patterns  (CLI name, widths) of each forbidden pattern (solve jobs);
  expect    "free" or "found" for check jobs, the antichain size for
            antichain jobs;
  baseline  name of a ROADMAP item-1 baseline timed by this job.
"""

from __future__ import annotations

# name -> (builder, arguments). Builders are attributes of subposet.constructions
# or subposet.lattice; consecutive_levels(n, j, k) is levels j+1..j+k.
FAMILIES = {
    "rsti8_222": ("construct_rst_induced", (8, 2, 2, 2)),
    "rsti10_222": ("construct_rst_induced", (10, 2, 2, 2)),
    "rt9_22": ("construct_rt", (9, 2, 2)),
    "rt10_22": ("construct_rt", (10, 2, 2)),
    "rt12_22": ("construct_rt", (12, 2, 2)),
    "rt9_23": ("construct_rt", (9, 2, 3)),
    "rt10_23": ("construct_rt", (10, 2, 3)),
    "rt9_33": ("construct_rt", (9, 3, 3)),
    "rt10_33": ("construct_rt", (10, 3, 3)),
    "rsti10_131": ("construct_rst_induced", (10, 1, 3, 1)),
    "rsti10_141": ("construct_rst_induced", (10, 1, 4, 1)),
    "rsti8_232": ("construct_rst_induced", (8, 2, 3, 2)),
    "rst10_222": ("construct_rst", (10, 2, 2, 2)),
    "rst11_222": ("construct_rst", (11, 2, 2, 2)),
    "rst12_222": ("construct_rst", (12, 2, 2, 2)),
    "rsti9_221": ("construct_rst_induced", (9, 2, 2, 1)),
    "rsti11_131": ("construct_rst_induced", (11, 1, 3, 1)),
    "rsti9_141": ("construct_rst_induced", (9, 1, 4, 1)),
    "rt8_33": ("construct_rt", (8, 3, 3)),
    "rt8_44": ("construct_rt", (8, 4, 4)),
    "rt9_24": ("construct_rt", (9, 2, 4)),
    "rt10_32": ("construct_rt", (10, 3, 2)),
    "rsti10_221": ("construct_rst_induced", (10, 2, 2, 1)),
    "rsti9_122": ("construct_rst_induced", (9, 1, 2, 2)),
    # scan: wide families of 1.7k-4.7k members
    "cl13_6_7": ("consecutive_levels", (13, 5, 2)),
    "cl12_5_7": ("consecutive_levels", (12, 4, 3)),
    "level14_7": ("consecutive_levels", (14, 6, 1)),
    "level13_6": ("consecutive_levels", (13, 5, 1)),
    "full12": ("consecutive_levels", (12, -1, 13)),
    "rsti13_131": ("construct_rst_induced", (13, 1, 3, 1)),
    "rt13_22": ("construct_rt", (13, 2, 2)),
    "rst13_121": ("construct_rst", (13, 1, 2, 1)),
    # chains: n = 8-9
    "rt8_22": ("construct_rt", (8, 2, 2)),
    "cl8_3_5": ("consecutive_levels", (8, 2, 3)),
    "cl9_4_5": ("consecutive_levels", (9, 3, 2)),
    "rsti9_131": ("construct_rst_induced", (9, 1, 3, 1)),
}

CAP = ["--chain-cap", "9"]


def _check(family, pattern, widths, expect, induced=True, extra=(), baseline=None):
    argv = ["check", "{family}", "--poset", pattern, *(["--induced"] if induced else []), *extra]
    return {"kind": "check", "family": family, "argv": argv, "pattern": widths,
            "induced": induced, "expect": expect, "baseline": baseline}


def _solve(n, patterns, induced=False, extra=(), baseline=None):
    argv = ["solve", str(n)]
    for spec, _ in patterns:
        argv += ["--poset", spec]
    if induced:
        argv.append("--induced")
    return {"kind": "solve", "n": n, "argv": argv + list(extra), "patterns": patterns,
            "induced": induced, "baseline": baseline}


def _chains(mode, family, *params, baseline=None):
    return {"kind": "chains", "family": family, "argv": ["chains", mode, "{family}", *params, *CAP],
            "mode": mode, "baseline": baseline}


def _antichain(family, expect, baseline=None):
    return {"kind": "antichain", "family": family, "expect": expect, "baseline": baseline}


P2, P3, P4 = ("P2", (1, 1)), ("P3", (1, 1, 1)), ("P4", (1, 1, 1, 1))
VEE, WEDGE, BUTTERFLY = ("vee", (1, 2)), ("wedge", (2, 1)), ("butterfly", (2, 2))
K121, K22 = ("K[1,2,1]", (1, 2, 1)), ("K[2,2]", (2, 2))

# Every construction against the pattern it is built to avoid: each verdict
# is FREE (or BUDGET) and needs the whole search tree. 25 jobs, so that the
# 90th percentile falls among the ~0.7 s searches below the 10^6-node one.
VERIFY = {
    "rsti8_222.K222": _check("rsti8_222", "K[2,2,2]", (2, 2, 2), "free"),
    "rsti10_222.K222": _check("rsti10_222", "K[2,2,2]", (2, 2, 2), "free"),
    "rt9_22.butterfly": _check("rt9_22", "butterfly", (2, 2), "free"),
    "rt10_22.butterfly": _check("rt10_22", "butterfly", (2, 2), "free"),
    "rt12_22.butterfly.budget1e6": _check(
        "rt12_22", "butterfly", (2, 2), "free", extra=("--budget", "1000000"),
        baseline="induced butterfly on construct_rt(12,2,2), 10^6 nodes"),
    "rt9_23.K23": _check("rt9_23", "K[2,3]", (2, 3), "free"),
    "rt10_23.K23": _check("rt10_23", "K[2,3]", (2, 3), "free"),
    "rt9_33.K33": _check("rt9_33", "K[3,3]", (3, 3), "free"),
    "rt10_33.K33": _check("rt10_33", "K[3,3]", (3, 3), "free"),
    "rsti10_131.K131": _check("rsti10_131", "K[1,3,1]", (1, 3, 1), "free"),
    "rsti10_141.K141": _check("rsti10_141", "K[1,4,1]", (1, 4, 1), "free"),
    "rsti8_232.K232": _check("rsti8_232", "K[2,3,2]", (2, 3, 2), "free"),
    "rst10_222.K222": _check("rst10_222", "K[2,2,2]", (2, 2, 2), "free", induced=False),
    "rst11_222.K222": _check("rst11_222", "K[2,2,2]", (2, 2, 2), "free", induced=False),
    "rst12_222.K222": _check("rst12_222", "K[2,2,2]", (2, 2, 2), "free", induced=False),
    "rsti9_131.K131": _check("rsti9_131", "K[1,3,1]", (1, 3, 1), "free"),
    "rsti9_221.K221": _check("rsti9_221", "K[2,2,1]", (2, 2, 1), "free"),
    "rsti11_131.K131": _check("rsti11_131", "K[1,3,1]", (1, 3, 1), "free"),
    "rsti9_141.K141": _check("rsti9_141", "K[1,4,1]", (1, 4, 1), "free"),
    "rt8_33.K33": _check("rt8_33", "K[3,3]", (3, 3), "free"),
    "rt8_44.K44": _check("rt8_44", "K[4,4]", (4, 4), "free"),
    "rt9_24.K24": _check("rt9_24", "K[2,4]", (2, 4), "free"),
    "rt10_32.K32": _check("rt10_32", "K[3,2]", (3, 2), "free"),
    "rsti10_221.K221": _check("rsti10_221", "K[2,2,1]", (2, 2, 1), "free"),
    "rsti9_122.K122": _check("rsti9_122", "K[1,2,2]", (1, 2, 2), "free"),
}

# Wide families where the verdict takes at most a few search nodes, so the
# pairwise member work dominates; plus maximum antichains of middle bands.
# full12 and cl13_6_7 hit the recursive matching's RecursionError at this
# commit; they stay in the pool and count as failed jobs.
SCAN = {
    "cl13_6_7.K121": _check("cl13_6_7", *K121, "free"),
    "cl13_6_7.vee": _check("cl13_6_7", *VEE, "found", induced=False),
    "cl13_6_7.wedge": _check("cl13_6_7", *WEDGE, "found"),
    "cl12_5_7.P3": _check("cl12_5_7", *P3, "found", induced=False),
    "cl12_5_7.K121": _check("cl12_5_7", *K121, "found"),
    "level14_7.P2": _check("level14_7", *P2, "free", induced=False),
    "rsti13_131.P4": _check("rsti13_131", *P4, "free", induced=False),
    "rt13_22.K121": _check("rt13_22", *K121, "found"),
    "rt13_22.K22": _check("rt13_22", *K22, "found", induced=False),
    "rst13_121.K121": _check("rst13_121", *K121, "free", induced=False),
    "level14_7.antichain": _antichain("level14_7", 3432, baseline="max_antichain(level(14,7))"),
    "level13_6.antichain": _antichain("level13_6", 1716),
    "cl12_5_7.antichain": _antichain("cl12_5_7", 924),
    "cl13_6_7.antichain": _antichain("cl13_6_7", 1716),
    "full12.antichain": _antichain("full12", 924),
}

# Thousands of include attempts, each a containment search on at most 32
# members. 25 jobs, so that the 90th percentile falls on the n = 4 solves
# below the two long n = 5 ones, whose times vary most from run to run.
SOLVE = {
    "n4.P2": _solve(4, [P2]),
    "n4.K22.ind": _solve(4, [K22], induced=True),
    "n4.vee.ind": _solve(4, [VEE], induced=True),
    "n4.wedge.ind": _solve(4, [WEDGE], induced=True),
    "n4.wedge": _solve(4, [WEDGE]),
    "n4.P3": _solve(4, [P3]),
    "n4.P3.ind": _solve(4, [P3], induced=True),
    "n4.vee": _solve(4, [VEE]),
    "n4.butterfly": _solve(4, [BUTTERFLY]),
    "n4.K121": _solve(4, [K121]),
    "n4.K121.ind": _solve(4, [K121], induced=True),
    "n4.vee+wedge": _solve(4, [VEE, WEDGE]),
    "n4.vee+wedge.ind": _solve(4, [VEE, WEDGE], induced=True),
    "n4.vee+butterfly": _solve(4, [VEE, BUTTERFLY]),
    "n4.wedge+butterfly": _solve(4, [WEDGE, BUTTERFLY]),
    "n4.P3+vee": _solve(4, [P3, VEE]),
    "n4.P3+wedge": _solve(4, [P3, WEDGE]),
    "n4.P3+butterfly": _solve(4, [P3, BUTTERFLY]),
    "n4.P3+K22.ind": _solve(4, [P3, K22], induced=True),
    "n4.K121+vee": _solve(4, [K121, VEE]),
    "n4.K121+wedge.ind": _solve(4, [K121, WEDGE], induced=True),
    "n4.K121+butterfly": _solve(4, [K121, BUTTERFLY]),
    "n4.K121+butterfly.ind": _solve(4, [K121, BUTTERFLY], induced=True),
    "n5.P2": _solve(5, [P2], baseline="la_exact(5,[P2])"),
    "n5.butterfly.budget20000": _solve(
        5, [BUTTERFLY], extra=("--break-symmetry", "--budget", "20000")),
}

# The n! permutation walk of the marker partitions; no containment search.
CHAINS = {
    "rt8_22.pairs": _chains("pairs", "rt8_22"),
    "rt8_22.minmax": _chains("minmax", "rt8_22"),
    "rt8_22.minr2": _chains("minr", "rt8_22", "--r", "2"),
    "rt8_22.minrmaxt22": _chains("minrmaxt", "rt8_22", "--r", "2", "--t", "2",
                                 baseline="minrmaxt r=t=2 at n=8"),
    "rsti8_222.pairs": _chains("pairs", "rsti8_222"),
    "rsti8_222.minmax": _chains("minmax", "rsti8_222"),
    "rsti8_222.minr2": _chains("minr", "rsti8_222", "--r", "2"),
    "rsti8_222.minrmaxt22": _chains("minrmaxt", "rsti8_222", "--r", "2", "--t", "2"),
    "cl8_3_5.pairs": _chains("pairs", "cl8_3_5"),
    "cl8_3_5.minmax": _chains("minmax", "cl8_3_5"),
    "cl8_3_5.minr3": _chains("minr", "cl8_3_5", "--r", "3"),
    "cl8_3_5.minrmaxt12": _chains("minrmaxt", "cl8_3_5", "--r", "1", "--t", "2"),
    "rt9_22.pairs": _chains("pairs", "rt9_22"),
    "cl9_4_5.pairs": _chains("pairs", "cl9_4_5"),
    "rsti9_131.pairs": _chains("pairs", "rsti9_131"),
}

# Pool, and the jobs run once in each set-up to warm up (their families are
# built by every set-up anyway).
WORKLOADS = {
    "verify": (VERIFY, ["rt9_22.butterfly", "rsti8_222.K222"]),
    "scan": (SCAN, []),
    "solve": (SOLVE, ["n4.P2", "n4.P3+vee"]),
    "chains": (CHAINS, ["rt8_22.pairs", "rt8_22.minmax"]),
}
