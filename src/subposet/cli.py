"""Command-line surface: every module behind one deterministic JSON-emitting tool.

Each invocation prints a single JSON object
``{"command": ..., "parameters": ..., "payload": ...}`` on stdout (keys
sorted, so identical inputs give byte-identical output) and uses the exit
codes: 0 success, 1 a containment was found while checking freeness, 2 usage
or precondition error, 3 budget exhausted, 4 internal error or a stdout that
cannot take the output (``console_main``, no traceback). Rationals are "p/q" strings and big
counts decimal strings; floats never appear.

A call builds the parser of its own command only: ``build_parser(argv[0])``
registers that one subparser, and all of them only for top-level help, an
empty command line or an unknown command. Usage and error text are the same
either way. Nothing is kept from one call to the next, so a fresh process
pays for one subparser, not for the whole tree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chains, constructions, containment, formulas, lattice, posets, solver

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def load_poset_spec(spec: str) -> posets.Poset:
    """Accepts K[...] signatures, vee/wedge/butterfly, P<k> chains, or a file path."""
    if spec in posets.NAMED:
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


def _arg(*flags, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


# name: (help, handler, arguments); build_parser registers them in this order
COMMANDS = {
    "sigma": ("sum of the k largest binomial coefficients of order n", _cmd_sigma,
              [_arg("n", type=int), _arg("k", type=int)]),
    "aheight": ("smallest interval height holding an antichain of size s", _cmd_aheight,
                [_arg("s", type=int)]),
    "mheight": ("smallest interval height fitting s middle sets (non-induced)", _cmd_mheight,
                [_arg("s", type=int),
                 _arg("--ends", type=int, default=0, help="wide-end correction (0, 1, or 2)")]),
    "ends": ("how many of the widths r, t are at least 2", _cmd_ends,
             [_arg("r", type=int), _arg("t", type=int)]),
    "estar": ("always-free consecutive level count for a K[...] signature", _cmd_estar,
              [_arg("signature")]),
    "classify": ("bound regime of a three-level width triple", _cmd_classify,
                 [_arg("r", type=int), _arg("s", type=int), _arg("t", type=int)]),
    "bounds": ("density bounds for the three-level problem", _cmd_bounds,
               [_arg("mode", choices=["nonind", "ind"]),
                _arg("r", type=int), _arg("s", type=int), _arg("t", type=int),
                _arg("--regime", choices=[r.value for r in formulas.Regime], default=None)]),
    "construct": ("build an extremal lower-bound family", _cmd_construct,
                  [_arg("kind", choices=["rt", "rst", "rst-ind"]),
                   _arg("widths", type=int, nargs="+", help="rt: n r t; rst/rst-ind: n r s t"),
                   _arg("-o", "--output", required=True)]),
    "check": ("freeness check of a family file against one poset", _cmd_check,
              [_arg("family"),
               _arg("--poset", required=True, help="K[...], vee|wedge|butterfly, P<k>, or a file"),
               _arg("--induced", action="store_true"),
               _arg("--budget", type=int, default=containment.DEFAULT_BUDGET)]),
    "solve": ("exact maximum free family size for small n", _cmd_solve,
              [_arg("n", type=int),
               _arg("--poset", action="append", required=True, help="repeatable"),
               _arg("--induced", action="store_true"),
               _arg("--budget", type=int, default=None),
               _arg("--cap", type=int, default=solver.DEFAULT_SOLVER_CAP),
               _arg("--break-symmetry", action="store_true")]),
    "chains": ("pair counts and marker partitions over maximal chains", _cmd_chains,
               [_arg("mode", choices=["pairs", "minmax", "minr", "minrmaxt"]),
                _arg("family"),
                _arg("--r", type=int, default=None),
                _arg("--t", type=int, default=None),
                _arg("--chain-cap", type=int, default=chains.DEFAULT_CHAIN_CAP)]),
    "lym": ("exact LYM sum of a family file", _cmd_lym, [_arg("family")]),
    "coeff": ("exact chain-pair coefficients", _cmd_coeff,
              [_arg("kind", choices=["three", "capped"]),
               _arg("n", type=int),
               _arg("--s", type=int, default=None)]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with ``command``'s subparser alone when it names one, else
    with every subparser (no command, top-level help, an unknown command)."""
    parser = argparse.ArgumentParser(
        prog="subposet",
        description="Exact computations for forbidden-subposet problems in the Boolean lattice.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # a lone subparser still shows every command name in the top-level usage
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, _, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def _parameters(args: argparse.Namespace) -> dict:
    return {key: value for key, value in sorted(vars(args).items()) if key != "command"}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        payload, code = COMMANDS[args.command][1](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        payload, code = {"error": str(exc)}, EXIT_USAGE
    except Exception as exc:  # a crash must not exit 1, which means "containment found"
        message = f"{type(exc).__name__}: {exc}"
        print(f"internal error: {message}", file=sys.stderr)
        payload, code = {"error": message}, EXIT_INTERNAL
    result = {"command": args.command, "parameters": _parameters(args), "payload": payload}
    print(json.dumps(result, sort_keys=True), flush=True)
    return code


def console_main() -> None:
    try:
        code = main()  # main flushes its output, so a closed pipe fails here, not at exit
    except OSError:  # stdout cannot take the output: a closed pipe, a full disk
        # Python's signal docs: stdout to devnull, or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    console_main()
