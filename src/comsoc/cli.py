"""Command-line surface: one subcommand per solver family, JSON on stdout.

Exit codes: 0 success, 1 no solution (search subcommands, and ``dodgson``
if its swap program ever reports none), 2 input error, 3 capacity error.
Output is a single JSON object with sorted keys and compact separators,
so identical invocations are byte-identical. :func:`_emit` prints every
answer and maps ``"yes": false`` to exit code 1. JSON input is checked
against ``schemas.INPUT_SCHEMAS`` by :func:`_read_json`.
``--json-schema`` on any subcommand prints its output schema instead of
running.

A call pays only for the subcommand it runs: each handler imports the
solver modules it needs when it runs, so ``import comsoc.cli`` loads no
solver, and :func:`main` builds the parser on its first call and reuses
it for the rest of the process.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapacityError

OK = 0
NO_SOLUTION = 1
INPUT_ERROR = 2
CAPACITY_ERROR = 3


def _write_json(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _emit(subcommand, payload):
    """Check and print ``payload``; exit code 1 for ``"yes": false``, else 0."""
    from .schemas import SCHEMAS, validate_json

    validate_json(payload, SCHEMAS[subcommand])
    _write_json(payload)
    return NO_SOLUTION if payload.get("yes") is False else OK


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_json(text, kind):
    """``text`` parsed as JSON and checked against ``INPUT_SCHEMAS[kind]``."""
    from .schemas import INPUT_SCHEMAS, validate_json

    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    validate_json(payload, INPUT_SCHEMAS[kind])
    return payload


def _read_election(args) -> Election:
    from .elections import Election
    from .fileio import parse_election, parse_preflib_soc

    text = _read_text(args.infile)
    if getattr(args, "preflib", False):
        return parse_preflib_soc(text)
    if text.lstrip().startswith("{"):
        payload = _read_json(text, "election")
        return Election(payload["orders"], labels=payload.get("labels"))
    return parse_election(text)


def _rule(args, m) -> ScoringVector:
    from .elections import ScoringVector

    if args.rule == "plurality":
        return ScoringVector.plurality(m)
    if args.rule == "borda":
        return ScoringVector.borda(m)
    if args.d is None:
        raise ValueError("--d is required for the approval rule")
    return ScoringVector.d_approval(m, args.d)


def _cmd_winners(args):
    from .elections import condorcet_winner, scoring_winners

    e = _read_election(args)
    result = scoring_winners(e, _rule(args, e.m))
    payload = {
        "m": e.m,
        "n": e.n,
        "rule": args.rule,
        "scores": list(result.scores),
        "winners": list(result.winners),
        "condorcet_winner": condorcet_winner(e),
    }
    if e.labels is not None:
        payload["labels"] = list(e.labels)
    return _emit("winners", payload)


def _cmd_kemeny(args):
    from .kemeny import avg_pairwise_distance, kemeny_brute_force, kemeny_dp

    e = _read_election(args)
    if args.method == "brute-force":
        result = kemeny_brute_force(e)
    else:
        result = kemeny_dp(e)
    payload = {
        "score": result.score,
        "ranking": list(result.ranking),
        "d_a": avg_pairwise_distance(e),
        "method": args.method,
    }
    return _emit("kemeny", payload)


def _cmd_dodgson(args):
    from .dodgson import dodgson_score

    e = _read_election(args)
    targets = range(e.m) if args.target is None else [args.target]
    scores = []
    for c in targets:
        solution = dodgson_score(e, c)
        if solution is None:
            print(f"no solution: the Dodgson program for target {c} has none", file=sys.stderr)
            return NO_SOLUTION
        scores.append(solution.score)
    if args.target is None:
        return _emit("dodgson", {"scores": scores})
    return _emit("dodgson", {"target": args.target, "score": scores[0]})


def _cmd_ccdv(args):
    from .control import ControlInstance, ccdv_fpt

    e = _read_election(args)
    instance = ControlInstance(e, args.d, args.target, args.k)
    witness = ccdv_fpt(instance, unique=args.unique_winner)
    payload = {
        "yes": witness is not None,
        "deleted": witness,
        "target": args.target,
        "d": args.d,
        "k": args.k,
    }
    return _emit("ccdv", payload)


def _cmd_bribe(args):
    from .bribery import (
        BriberyBudget,
        ShiftPriceFunction,
        SwapPriceFunction,
        shift_bribery,
        swap_bribery,
        unit_or_priced_bribery,
    )

    e = _read_election(args)
    rule = _rule(args, e.m)
    prices = _read_json(_read_text(args.prices), "prices") if args.prices else {}
    if args.flavor == "unit":
        budget = BriberyBudget(args.budget)
        plan = unit_or_priced_bribery(e, rule, args.target, budget, unique=args.unique_winner)
    elif args.flavor == "priced":
        voter_prices = prices.get("voter_prices")
        if voter_prices is None:
            raise ValueError("priced bribery needs voter_prices in --prices file")
        budget = BriberyBudget(args.budget, tuple(voter_prices))
        plan = unit_or_priced_bribery(e, rule, args.target, budget, unique=args.unique_winner)
    elif args.flavor == "swap":
        tables = prices.get("swap_prices")
        if tables is None:
            price_fn = SwapPriceFunction.unit(e.n, e.m)
        else:
            price_fn = SwapPriceFunction([[((a, b), c) for a, b, c in t] for t in tables])
        plan = swap_bribery(e, rule, args.target, price_fn, args.budget, unique=args.unique_winner)
    else:
        tariffs = prices.get("shift_tariffs")
        if tariffs is None:
            fn = ShiftPriceFunction.linear(e, args.target)
        else:
            fn = ShiftPriceFunction(tariffs)
        plan = shift_bribery(e, rule, args.target, fn, args.budget, unique=args.unique_winner)
    payload = {
        "yes": plan is not None,
        "flavor": args.flavor,
        "cost": plan.cost if plan is not None else None,
        "bribed": sorted(a.voter for a in plan.actions) if plan is not None else None,
    }
    return _emit("bribe", payload)


def _cmd_structure(args):
    from .structure import (
        find_single_peaked_axis,
        group_separable_split,
        is_single_peaked_wrt,
        single_crossing_report,
        sp_deletion_distance,
    )

    e = _read_election(args)
    if args.check == "sp":
        if args.axis:
            axis = tuple(int(t) for t in args.axis.split(","))
            payload = {"single_peaked": is_single_peaked_wrt(e, axis), "axis": list(axis)}
        else:
            axis = find_single_peaked_axis(e)
            payload = {
                "single_peaked": axis is not None,
                "axis": list(axis) if axis is not None else None,
            }
    elif args.check == "sc":
        report = single_crossing_report(e)
        payload = {
            "single_crossing": report.is_single_crossing,
            "max_crossings": report.max_crossings,
        }
    elif args.check == "separable":
        split = group_separable_split(e)
        payload = {
            "separable": split is not None,
            "groups": [list(split[0]), list(split[1])] if split is not None else None,
        }
    else:
        mode = "voters" if args.check == "sp-voters" else "alternatives"
        distance, witness = sp_deletion_distance(e, mode)
        payload = {"distance": distance, "witness": list(witness), "mode": mode}
    return _emit("structure", payload)


def _cmd_mab(args):
    from .circuits import MabInstance, mab_solve

    payload_in = _read_json(_read_text(args.infile), "mab")
    ballots = [frozenset(b) for b in payload_in["ballots"]]
    inst = MabInstance(payload_in["m"], ballots, frozenset(payload_in.get("agenda", [])))
    ballot = mab_solve(inst, size=args.size, unanimous=args.unanimous)
    payload = {"yes": ballot is not None, "ballot": list(ballot) if ballot is not None else None}
    return _emit("mab", payload)


def _cmd_wcs(args):
    from .circuits import wcs_solve
    from .fileio import parse_circuit

    circuit = parse_circuit(_read_text(args.infile))
    if args.metrics:
        metrics = circuit.metrics()
        return _emit("wcs", {"weft": metrics.weft, "depth": metrics.depth})
    if args.weight is None:
        raise ValueError("wcs needs --weight k or --metrics")
    assignment = wcs_solve(circuit, args.weight)
    payload = {
        "yes": assignment is not None,
        "assignment": list(assignment) if assignment is not None else None,
        "weight": args.weight,
    }
    return _emit("wcs", payload)


def _cmd_cake(args):
    from .cake import check_fairness, cut_and_choose, last_diminisher
    from .fileio import format_fraction, parse_densities

    densities = parse_densities(_read_text(args.infile))
    if args.protocol == "cut-and-choose":
        division = cut_and_choose(densities)
    else:
        division = last_diminisher(densities)
    report = check_fairness(division, densities)
    own = [row[p] for p, row in enumerate(report.values)]
    payload = {
        "protocol": args.protocol,
        "division": [
            [[format_fraction(lo), format_fraction(hi)] for lo, hi in piece.intervals]
            for piece in division.pieces
        ],
        "values": [[format_fraction(v) for v in row] for row in report.values],
        "proportional": report.proportional,
        "envy_free": report.envy_free,
        "equitable": report.equitable,
        "equal_valued": report.equal_valued,
        "utilitarian": format_fraction(sum(own)),
        "egalitarian": format_fraction(min(own)),
    }
    return _emit("cake", payload)


def _cmd_gen(args):
    from .fileio import format_fraction, write_election
    from .generators import GeneratorSpec, generate

    axis = tuple(int(t) for t in args.axis.split(",")) if args.axis else None
    spec = GeneratorSpec(model=args.model, m=args.m, n=args.n, seed=args.seed, axis=axis)
    result = generate(spec)
    if args.format == "soc":
        sys.stdout.write(write_election(result.election))
        return OK
    payload = {
        "m": result.election.m,
        "n": result.election.n,
        "model": args.model,
        "seed": args.seed,
        "orders": [list(v) for v in result.election.voters],
    }
    if result.axis is not None:
        payload["axis"] = list(result.axis)
    if result.embedding is not None:
        payload["positions"] = {
            "alternatives": [format_fraction(p[0]) for p in result.embedding.alternatives],
            "voters": [format_fraction(p[0]) for p in result.embedding.voters],
        }
    return _emit("gen", payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comsoc",
        description="Exact desk-scale solvers for social choice problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, command=name)
        p.add_argument("--json-schema", action="store_true", help="print the output schema and exit")
        return p

    def add_infile(p):
        p.add_argument("--in", dest="infile", default="-", help="input file, '-' for stdin")
        p.add_argument("--preflib", action="store_true", help="input is PrefLib .soc data")

    def add_rule(p):
        p.add_argument("--rule", choices=("plurality", "borda", "approval"), default="plurality")
        p.add_argument("--d", type=int, default=None, help="approval depth for --rule approval")

    p = add("winners", _cmd_winners, help="scoring-rule winners and Condorcet winner")
    add_infile(p)
    add_rule(p)

    p = add("kemeny", _cmd_kemeny, help="optimal ranking, its score, and d_a")
    add_infile(p)
    p.add_argument("--method", choices=("dp", "brute-force"), default="dp")

    p = add("dodgson", _cmd_dodgson, help="swaps needed to create a Condorcet winner")
    add_infile(p)
    p.add_argument("--target", type=int, default=None, help="alternative id; omit for all")

    p = add("ccdv", _cmd_ccdv, help="constructive control by deleting voters (d-approval)")
    add_infile(p)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--unique-winner", action="store_true")

    p = add("bribe", _cmd_bribe, help="unit, priced, swap, or shift bribery")
    add_infile(p)
    add_rule(p)
    p.add_argument("--flavor", choices=("unit", "priced", "swap", "shift"), required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--prices", default=None, help="JSON file with prices/tariffs")
    p.add_argument("--unique-winner", action="store_true")

    p = add("structure", _cmd_structure, help="structured-preference checks")
    add_infile(p)
    p.add_argument(
        "--check",
        choices=("sp", "sc", "separable", "sp-voters", "sp-alts"),
        required=True,
    )
    p.add_argument("--axis", default=None, help="comma-separated axis for --check sp")

    p = add("mab", _cmd_mab, help="majority-accepted ballot search")
    p.add_argument("--in", dest="infile", default="-", help="JSON instance file")
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--unanimous", action="store_true")

    p = add("wcs", _cmd_wcs, help="weighted circuit satisfiability / metrics")
    p.add_argument("--in", dest="infile", default="-", help="circuit file")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--metrics", action="store_true")

    p = add("cake", _cmd_cake, help="run a division protocol and audit fairness")
    p.add_argument("--in", dest="infile", default="-", help="density file")
    p.add_argument("--protocol", choices=("cut-and-choose", "last-diminisher"), required=True)

    p = add("gen", _cmd_gen, help="deterministic election generators")
    p.add_argument("--model", choices=("impartial-culture", "single-peaked", "euclidean-1d"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--axis", default=None, help="comma-separated axis for single-peaked")
    p.add_argument("--format", choices=("json", "soc"), default="json")

    return parser


# parse_args leaves the parser as it was, so one serves every call.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.json_schema:
        from .schemas import SCHEMAS

        _write_json(SCHEMAS[args.command])
        return OK
    try:
        return args.func(args)
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return CAPACITY_ERROR
    except (ValueError, KeyError, OSError) as err:  # ParseError is a ValueError
        print(f"input error: {err}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
