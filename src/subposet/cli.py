"""Command-line surface: every module behind one deterministic JSON-emitting tool.

Each invocation prints a single JSON object
``{"command": ..., "parameters": ..., "payload": ...}`` on stdout (keys
sorted, so identical inputs give byte-identical output) and uses the exit
codes: 0 success, 1 a containment was found while checking freeness, 2 usage
or precondition error, 3 budget exhausted, 4 internal error. Rationals are
rendered as "p/q" strings and big counts as decimal strings; floats never
appear.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chains, constructions, containment, formulas, lattice, posets, solver

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def load_poset_spec(spec: str) -> posets.Poset:
    """Accepts K[...] signatures, vee/wedge/butterfly, P<k> chains, or a file path."""
    if spec in ("vee", "wedge", "butterfly"):
        return posets.named_poset(spec)
    if spec.startswith("K["):
        return posets.complete_multilevel(posets.parse_signature(spec))
    if len(spec) > 1 and spec[0] == "P" and spec[1:].isdigit():
        return posets.chain_poset(int(spec[1:]))
    with open(spec, "r", encoding="utf-8") as fh:
        return posets.parse_poset(fh.read())


def _read_family(path: str) -> lattice.SetFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return lattice.parse_family(fh.read())


def _embedding_strings(family: lattice.SetFamily, embedding: tuple[int, ...]) -> list[str]:
    return [lattice.set_str(family.members[idx]) for idx in embedding]


def _cmd_sigma(args) -> tuple[dict, int]:
    return {"value": str(lattice.sigma(args.n, args.k))}, EXIT_OK


def _cmd_aheight(args) -> tuple[dict, int]:
    return {"value": formulas.antichain_height(args.s)}, EXIT_OK


def _cmd_mheight(args) -> tuple[dict, int]:
    return {"value": formulas.middle_height(args.s, args.ends)}, EXIT_OK


def _cmd_ends(args) -> tuple[dict, int]:
    return {"value": formulas.wide_ends(args.r, args.t)}, EXIT_OK


def _cmd_estar(args) -> tuple[dict, int]:
    widths = posets.parse_signature(args.signature)
    ones, reduced = formulas.reduce_signature(widths)
    value = formulas.induced_free_levels(widths)
    payload = {
        "value": value,
        "ones_collapsed": ones,
        "reduced_signature": posets.signature_str((widths[0], *reduced, widths[-1])),
    }
    return payload, EXIT_OK


def _cmd_classify(args) -> tuple[dict, int]:
    return {"case": formulas.classify(args.r, args.s, args.t).value}, EXIT_OK


def _cmd_bounds(args) -> tuple[dict, int]:
    if args.mode == "nonind":
        label = formulas.classify(args.r, args.s, args.t)
        lower, upper = formulas.density_bounds(args.r, args.s, args.t)
        payload = {"case": label.value, "lower": str(lower), "upper": str(upper)}
    else:
        if args.regime is None:
            raise ValueError("bounds ind requires --regime {s4,large-bounded,large-general}")
        regime = formulas.Regime(args.regime)
        lower, upper = formulas.density_bounds_induced(args.r, args.s, args.t, regime)
        payload = {"regime": regime.value, "lower": str(lower), "upper": str(upper)}
    return payload, EXIT_OK


def _cmd_construct(args) -> tuple[dict, int]:
    values = args.widths
    if args.kind == "rt":
        if len(values) != 3:
            raise ValueError("construct rt takes: n r t")
        n, r, t = values
        fam = constructions.construct_rt(n, r, t)
    else:
        if len(values) != 4:
            raise ValueError(f"construct {args.kind} takes: n r s t")
        n, r, s, t = values
        if args.kind == "rst":
            fam = constructions.construct_rst(n, r, s, t)
        else:
            fam = constructions.construct_rst_induced(n, r, s, t)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(lattice.serialize_family(fam))
    return {"file": args.output, "n": fam.n, "size": fam.size}, EXIT_OK


def _cmd_check(args) -> tuple[dict, int]:
    family = _read_family(args.family)
    poset = load_poset_spec(args.poset)
    res = containment.contains_subposet(family, poset, args.induced, args.budget)
    if res.status is containment.SearchStatus.BUDGET:
        return {"free": None, "budget_exhausted": True, "nodes": str(res.nodes)}, EXIT_BUDGET
    if res.found:
        payload = {
            "free": False,
            "embedding": _embedding_strings(family, res.embedding),
            "nodes": str(res.nodes),
        }
        return payload, EXIT_VIOLATION
    return {"free": True, "nodes": str(res.nodes)}, EXIT_OK


def _cmd_solve(args) -> tuple[dict, int]:
    forbidden = [load_poset_spec(spec) for spec in args.poset]
    result = solver.la_exact(
        args.n,
        forbidden,
        induced=args.induced,
        budget=args.budget,
        max_n=args.cap,
        break_symmetry=args.break_symmetry,
    )
    return result.payload(), EXIT_OK if result.exhausted else EXIT_BUDGET


def _cmd_chains(args) -> tuple[dict, int]:
    family = _read_family(args.family)
    cap = args.chain_cap
    if args.mode == "pairs":
        formula = chains.count_pairs_formula(family)
        enumerated = chains.count_pairs_enumerated(family, cap)
        return {
            "formula": str(formula),
            "enumerated": str(enumerated),
            "match": formula == enumerated,
        }, EXIT_OK
    if args.mode == "minmax":
        report = chains.min_max_partition(family, cap)
    elif args.mode == "minr":
        if args.r is None:
            raise ValueError("chains minr requires --r")
        report = chains.min_r_partition(family, args.r, cap)
    else:
        if args.r is None or args.t is None:
            raise ValueError("chains minrmaxt requires --r and --t")
        report = chains.minr_maxt_partition(family, args.r, args.t, cap)
    return report.payload(), EXIT_OK


def _cmd_lym(args) -> tuple[dict, int]:
    return {"value": str(chains.lym_sum(_read_family(args.family)))}, EXIT_OK


def _cmd_coeff(args) -> tuple[dict, int]:
    if args.kind == "three":
        return {"value": str(chains.three_per_level_coeff(args.n))}, EXIT_OK
    if args.s is None:
        raise ValueError("coeff capped requires --s")
    return {"value": str(chains.capped_level_coeff(args.n, args.s))}, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subposet",
        description="Exact computations for forbidden-subposet problems in the Boolean lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="sum of the k largest binomial coefficients of order n")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("aheight", help="smallest interval height holding an antichain of size s")
    p.add_argument("s", type=int)
    p.set_defaults(handler=_cmd_aheight)

    p = sub.add_parser("mheight", help="smallest interval height fitting s middle sets (non-induced)")
    p.add_argument("s", type=int)
    p.add_argument("--ends", type=int, default=0, help="wide-end correction (0, 1, or 2)")
    p.set_defaults(handler=_cmd_mheight)

    p = sub.add_parser("ends", help="how many of the widths r, t are at least 2")
    p.add_argument("r", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(handler=_cmd_ends)

    p = sub.add_parser("estar", help="always-free consecutive level count for a K[...] signature")
    p.add_argument("signature")
    p.set_defaults(handler=_cmd_estar)

    p = sub.add_parser("classify", help="bound regime of a three-level width triple")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("bounds", help="density bounds for the three-level problem")
    p.add_argument("mode", choices=["nonind", "ind"])
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--regime", choices=[r.value for r in formulas.Regime], default=None)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("construct", help="build an extremal lower-bound family")
    p.add_argument("kind", choices=["rt", "rst", "rst-ind"])
    p.add_argument("widths", type=int, nargs="+", help="rt: n r t; rst/rst-ind: n r s t")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("check", help="freeness check of a family file against one poset")
    p.add_argument("family")
    p.add_argument("--poset", required=True, help="K[...], vee|wedge|butterfly, P<k>, or a file")
    p.add_argument("--induced", action="store_true")
    p.add_argument("--budget", type=int, default=containment.DEFAULT_BUDGET)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("solve", help="exact maximum free family size for small n")
    p.add_argument("n", type=int)
    p.add_argument("--poset", action="append", required=True, help="repeatable")
    p.add_argument("--induced", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--cap", type=int, default=solver.DEFAULT_SOLVER_CAP)
    p.add_argument("--break-symmetry", action="store_true")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("chains", help="pair counts and marker partitions over maximal chains")
    p.add_argument("mode", choices=["pairs", "minmax", "minr", "minrmaxt"])
    p.add_argument("family")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--chain-cap", type=int, default=chains.DEFAULT_CHAIN_CAP)
    p.set_defaults(handler=_cmd_chains)

    p = sub.add_parser("lym", help="exact LYM sum of a family file")
    p.add_argument("family")
    p.set_defaults(handler=_cmd_lym)

    p = sub.add_parser("coeff", help="exact chain-pair coefficients")
    p.add_argument("kind", choices=["three", "capped"])
    p.add_argument("n", type=int)
    p.add_argument("--s", type=int, default=None)
    p.set_defaults(handler=_cmd_coeff)

    return parser


def _parameters(args: argparse.Namespace) -> dict:
    skip = {"handler", "command"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        payload, code = {"error": str(exc)}, EXIT_USAGE
    except Exception as exc:  # a crash must not exit 1, which means "containment found"
        message = f"{type(exc).__name__}: {exc}"
        print(f"internal error: {message}", file=sys.stderr)
        payload, code = {"error": message}, EXIT_INTERNAL
    result = {"command": args.command, "parameters": _parameters(args), "payload": payload}
    print(json.dumps(result, sort_keys=True))
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
