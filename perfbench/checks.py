"""Answer checks that do not rely on the library's own assertions.

Each check takes a job and its parsed output, with the exit code and the
job's input family (a set of masks) where it needs them, and returns a list
of problems (empty when the answer is right). Verdict semantics follow the
CLI: exit 0 with "free": true, exit 1 with a witness, exit 3 when the node
budget ran out.
"""

from __future__ import annotations

from math import comb, factorial

EXIT_OK, EXIT_FOUND, EXIT_BUDGET = 0, 1, 3


def parse_set(text: str) -> int:
    inner = text.strip()[1:-1]
    return sum(1 << (int(e) - 1) for e in inner.split(",")) if inner else 0


def format_set(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def parse_family_text(text: str) -> tuple[int, list[int]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return int(lines[0].removeprefix("n=")), [parse_set(ln) for ln in lines[1:]]


def sigma(n: int, k: int) -> int:
    """Sum of the k largest binomial coefficients C(n, i) (Erdős's bound for P_{k+1})."""
    return sum(sorted((comb(n, i) for i in range(n + 1)), reverse=True)[:k])


def pattern_problems(widths, images, family, induced) -> list[str]:
    """Pair-by-pair test of a witness for the complete multilevel pattern with
    these widths; elements are numbered level by level, bottom first."""
    levels = [lvl for lvl, w in enumerate(widths) for _ in range(w)]
    if len(images) != len(levels):
        return [f"witness has {len(images)} sets, pattern has {len(levels)} elements"]
    if len(set(images)) != len(images):
        return ["witness repeats a set"]
    problems = [f"witness set {format_set(m)} is not in the family" for m in images if m not in family]
    for i, a in enumerate(images):
        for j, b in enumerate(images):
            if levels[i] < levels[j] and a & b != a:
                problems.append(f"elements {i}<{j} but {format_set(a)} is not below {format_set(b)}")
            elif induced and i < j and levels[i] == levels[j] and (a & b in (a, b)):
                problems.append(f"elements {i},{j} incomparable but their sets are comparable")
    return problems


def check_check(job, payload, code, family) -> list[str]:
    if code == EXIT_BUDGET and payload.get("budget_exhausted") is True and payload.get("free") is None:
        return []
    if code == EXIT_OK and payload.get("free") is True:
        return [] if job["expect"] == "free" else ["reported FREE, expected a copy"]
    if code == EXIT_FOUND and payload.get("free") is False:
        images = [parse_set(s) for s in payload["embedding"]]
        problems = pattern_problems(job["pattern"], images, family, job["induced"])
        if job["expect"] != "found":
            problems.append("reported a copy in a family built to avoid the pattern")
        return problems
    return [f"exit code {code} disagrees with payload {payload}"]


def check_solve(job, payload, code, sp) -> list[str]:
    exhausted = payload.get("exhausted")
    if (code, exhausted) not in ((EXIT_OK, True), (EXIT_BUDGET, False)):
        return [f"exit code {code} disagrees with exhausted={exhausted}"]
    n, masks = parse_family_text(payload["witness"])
    problems = []
    if n != job["n"] or len(masks) != payload["optimum"] or len(set(masks)) != len(masks):
        problems.append("witness does not match n or optimum")
    if any(m >> n for m in masks):
        problems.append("witness has elements outside [n]")
    if exhausted and len(job["patterns"]) == 1 and set(job["patterns"][0][1]) == {1}:
        k = len(job["patterns"][0][1])
        if payload["optimum"] != sigma(n, k - 1):
            problems.append(f"optimum {payload['optimum']} != Sigma({n},{k - 1}) = {sigma(n, k - 1)}")
    posets = [sp.posets.complete_multilevel(widths) for _, widths in job["patterns"]]
    try:
        sp.solver.certified_lower_bound(sp.lattice.SetFamily.of(n, masks), posets, job["induced"])
    except ValueError as exc:  # FreenessError
        problems.append(f"witness fails certified_lower_bound: {exc}")
    return problems


def check_chains(job, payload, code, family, n) -> list[str]:
    if code != EXIT_OK:
        return [f"exit code {code}"]
    pairs = sum(factorial(m.bit_count()) * factorial(n - m.bit_count()) for m in family)
    if job["mode"] == "pairs":
        ok = payload == {"formula": str(pairs), "enumerated": str(pairs), "match": True}
        return [] if ok else [f"pair counts {payload} != {pairs}"]
    labels = payload["labels"].values()
    problems = []
    if payload["n"] != n or payload["mode"] != job["mode"]:
        problems.append("payload n or mode is wrong")
    if sum(int(v["chains"]) for v in labels) != factorial(n) or payload["total_chains"] != str(factorial(n)):
        problems.append("chain counts do not sum to n!")
    if sum(int(v["pairs"]) for v in labels) != pairs or payload["total_pairs"] != str(pairs):
        problems.append("pair counts do not sum to the pair formula")
    return problems


def check_antichain(job, payload, family) -> list[str]:
    witness = [parse_set(s) for s in payload["witness"]]
    problems = []
    if payload["size"] != job["expect"] or len(set(witness)) != job["expect"]:
        problems.append(f"size {payload['size']} with {len(set(witness))} distinct sets, "
                        f"expected C(n, n/2) = {job['expect']}")
    if any(m not in family for m in witness):
        problems.append("witness set not in the family")
    if len({m.bit_count() for m in witness}) > 1:
        for a in witness:
            if any(a != b and a & b == a for b in witness):
                problems.append(f"{format_set(a)} is below another witness set")
                break
    return problems
