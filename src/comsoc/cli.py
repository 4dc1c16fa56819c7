"""Command-line surface: one subcommand per solver family, JSON on stdout.

Exit codes: 0 success, 1 no solution (search subcommands, and ``dodgson``
if its swap program ever reports none), 2 input error, 3 capacity error.
Output is a single JSON object with sorted keys and compact separators,
so identical invocations are byte-identical.
``--json-schema`` on any subcommand prints its output schema instead of
running.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bribery import (
    BriberyBudget,
    ShiftPriceFunction,
    SwapPriceFunction,
    shift_bribery,
    swap_bribery,
    unit_or_priced_bribery,
)
from .cake import check_fairness, cut_and_choose, last_diminisher, welfare
from .circuits import MabInstance, mab_solve, wcs_solve
from .control import ControlInstance, ccdv_fpt
from .dodgson import dodgson_score
from .elections import Election, ScoringVector, condorcet_winner, scoring_winners
from .errors import CapacityError, ParseError
from .fileio import (
    format_fraction,
    parse_circuit,
    parse_densities,
    parse_election,
    parse_preflib_soc,
    write_election,
)
from .generators import GeneratorSpec, generate
from .kemeny import (
    BRUTE_FORCE_MAX_M,
    DP_MAX_M,
    avg_pairwise_distance,
    kemeny_brute_force,
    kemeny_dp,
)
from .schemas import SCHEMAS, validate_json
from .structure import (
    AXIS_SEARCH_MAX_M,
    GROUP_SEP_MAX_M,
    find_single_peaked_axis,
    group_separable_split,
    is_single_peaked_wrt,
    single_crossing_report,
    sp_deletion_distance,
)

OK = 0
NO_SOLUTION = 1
INPUT_ERROR = 2
CAPACITY_ERROR = 3


def _write_json(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _emit(subcommand, payload):
    validate_json(payload, SCHEMAS[subcommand])
    _write_json(payload)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int_rows(payload, key):
    """``payload[key]``, checked to be a list of lists of ints."""
    rows = payload[key]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(map(_is_int, row)) for row in rows
    ):
        raise ValueError(f'"{key}" must be a list of lists of ints')
    return rows


def _read_election(args) -> Election:
    text = _read_text(args.infile)
    if getattr(args, "preflib", False):
        return parse_preflib_soc(text)
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        labels = payload.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise ValueError('"labels" must be a list')
        return Election(_int_rows(payload, "orders"), labels=labels)
    return parse_election(text)


def _rule(args, m) -> ScoringVector:
    if args.rule == "plurality":
        return ScoringVector.plurality(m)
    if args.rule == "borda":
        return ScoringVector.borda(m)
    if args.d is None:
        raise ValueError("--d is required for the approval rule")
    return ScoringVector.d_approval(m, args.d)


def _cmd_winners(args):
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
    _emit("winners", payload)
    return OK


def _cmd_kemeny(args):
    e = _read_election(args)
    if args.method == "brute-force":
        result = kemeny_brute_force(e, max_m=args.limit_m or BRUTE_FORCE_MAX_M)
    else:
        result = kemeny_dp(e, max_m=args.limit_m or DP_MAX_M)
    payload = {
        "score": result.score,
        "ranking": list(result.ranking.ranking),
        "d_a": avg_pairwise_distance(e),
        "method": args.method,
    }
    _emit("kemeny", payload)
    return OK


def _cmd_dodgson(args):
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
        _emit("dodgson", {"scores": scores})
    else:
        _emit("dodgson", {"target": args.target, "score": scores[0]})
    return OK


def _cmd_ccdv(args):
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
    _emit("ccdv", payload)
    return OK if witness is not None else NO_SOLUTION


def _cmd_bribe(args):
    e = _read_election(args)
    rule = _rule(args, e.m)
    prices = json.loads(_read_text(args.prices)) if args.prices else {}
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
            price_fn = SwapPriceFunction(
                [{(a, b): c for a, b, c in table} for table in tables]
            )
        plan = swap_bribery(e, rule, args.target, price_fn, args.budget, unique=args.unique_winner)
    else:
        tariffs = prices.get("shift_tariffs")
        if tariffs is None:
            fn = ShiftPriceFunction.linear(e, args.target)
        else:
            fn = ShiftPriceFunction([tuple(t) for t in tariffs])
        plan = shift_bribery(e, rule, args.target, fn, args.budget, unique=args.unique_winner)
    payload = {
        "yes": plan is not None,
        "flavor": args.flavor,
        "cost": plan.cost if plan is not None else None,
        "bribed": sorted(a.voter for a in plan.actions) if plan is not None else None,
    }
    _emit("bribe", payload)
    return OK if plan is not None else NO_SOLUTION


def _cmd_structure(args):
    e = _read_election(args)
    if args.check == "sp":
        if args.axis:
            axis = tuple(int(t) for t in args.axis.split(","))
            payload = {"single_peaked": is_single_peaked_wrt(e, axis), "axis": list(axis)}
        else:
            axis = find_single_peaked_axis(e, max_m=args.limit_m or AXIS_SEARCH_MAX_M)
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
        split = group_separable_split(e, max_m=args.limit_m or GROUP_SEP_MAX_M)
        payload = {
            "separable": split is not None,
            "groups": [list(split[0]), list(split[1])] if split is not None else None,
        }
    else:
        mode = "voters" if args.check == "sp-voters" else "alternatives"
        distance, witness = sp_deletion_distance(e, mode)
        payload = {"distance": distance, "witness": list(witness), "mode": mode}
    _emit("structure", payload)
    return OK


def _cmd_mab(args):
    payload_in = json.loads(_read_text(args.infile))
    if not isinstance(payload_in, dict):
        raise ValueError("a mab instance must be a JSON object")
    m, agenda = payload_in["m"], payload_in.get("agenda", [])
    if not _is_int(m):
        raise ValueError('"m" must be an int')
    if not isinstance(agenda, list) or not all(map(_is_int, agenda)):
        raise ValueError('"agenda" must be a list of ints')
    ballots = _int_rows(payload_in, "ballots")
    inst = MabInstance(m, [frozenset(b) for b in ballots], frozenset(agenda))
    ballot = mab_solve(inst, size=args.size, unanimous=args.unanimous)
    payload = {"yes": ballot is not None, "ballot": list(ballot) if ballot is not None else None}
    _emit("mab", payload)
    return OK if ballot is not None else NO_SOLUTION


def _cmd_wcs(args):
    circuit = parse_circuit(_read_text(args.infile))
    if args.metrics:
        metrics = circuit.metrics()
        _emit("wcs", {"weft": metrics.weft, "depth": metrics.depth})
        return OK
    if args.weight is None:
        raise ValueError("wcs needs --weight k or --metrics")
    assignment = wcs_solve(circuit, args.weight)
    payload = {
        "yes": assignment is not None,
        "assignment": list(assignment) if assignment is not None else None,
        "weight": args.weight,
    }
    _emit("wcs", payload)
    return OK if assignment is not None else NO_SOLUTION


def _cmd_cake(args):
    densities = parse_densities(_read_text(args.infile))
    if args.protocol == "cut-and-choose":
        division = cut_and_choose(densities)
    else:
        division = last_diminisher(densities)
    report = check_fairness(division, densities)
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
        "utilitarian": format_fraction(welfare(division, densities, "utilitarian")),
        "egalitarian": format_fraction(welfare(division, densities, "egalitarian")),
    }
    _emit("cake", payload)
    return OK


def _cmd_gen(args):
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
        "orders": [list(v.ranking) for v in result.election.voters],
    }
    if result.axis is not None:
        payload["axis"] = list(result.axis)
    if result.embedding is not None:
        payload["positions"] = {
            "alternatives": [format_fraction(p[0]) for p in result.embedding.alternatives],
            "voters": [format_fraction(p[0]) for p in result.embedding.voters],
        }
    _emit("gen", payload)
    return OK


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
    p.add_argument("--limit-m", type=int, default=None)

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
    p.add_argument("--limit-m", type=int, default=None)

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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.json_schema:
        _write_json(SCHEMAS[args.command])
        return OK
    try:
        return args.func(args)
    except ParseError as err:
        print(f"input error: {err}", file=sys.stderr)
        return INPUT_ERROR
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return CAPACITY_ERROR
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
