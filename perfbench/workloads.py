"""Seeded instance ladders, one per workload.

A workload is an endless list of rounds; round ``r`` of seed ``s`` is built
from ``random.Random(f"{workload}:{s}:{r}")``, so the same seed always gives
the same inputs and no instance repeats within a run. A round holds one
task per rung of the workload's ladder. Each task solves one instance
through the public ``comsoc`` functions, looked up on their modules at call
time so that a traced run sees them, and checks its own answer.

Ladder sizes are chosen so that a held-out seed does not hit one of the
solvers' exponential cliffs: at these sizes the slowest of 100 seeds stays
within a few times the median (see README.md).
"""

from __future__ import annotations

import io
import json
import random
import sys
from itertools import combinations
from pathlib import Path

from comsoc import bribery, cli, control, dodgson, elections, generators, kemeny

import checks

ROOT = Path(__file__).resolve().parent.parent
TESTS_DATA = ROOT / "tests" / "data"

KEMENY_N = 51
# Per round: six quick solves (m=8, m=10 and four Dodgson), then three at
# m=13 and six above, so the median lands inside the m=13 block and the
# 90th percentile inside the m=17 block, where DP time hardly varies.
KEMENY_M = (8, 10, 13, 13, 13, 14, 15, 16, 16, 17, 17)
DODGSON_IC = ((5, 15), (5, 19), (6, 11), (6, 13))
DODGSON_STRUCTURED = (
    ("single-peaked", 5, 9),
    ("single-peaked", 5, 11),
    ("euclidean-1d", 5, 15),
    ("euclidean-1d", 6, 11),
)
STRUCTURED = ("single-peaked", "euclidean-1d")

BRIBERY_LADDER = (
    ("unit", 5, 10),
    ("priced", 5, 10),
    ("swap", 4, 4),
    ("swap", 4, 4),
    ("shift", 5, 7),
    ("shift", 5, 7),
)
CCDV_M, CCDV_N, CCDV_D = 8, 20, 2
CCDV_RUNNER_UP_K = (1, 2, 3)
CCDV_LOWEST_K = 4
# Elections per round for the lowest-scorer no-instances. Their exhaustive
# searches are the slowest solves of a round and vary little between draws;
# four of them make up about a sixth of the solves, so the 90th percentile
# lands inside that block rather than in the thin tail of the bribery times.
CCDV_LOWEST_ELECTIONS = 4


class Task:
    """One solve: ``solve()`` returns the raw answer, ``check(answer)`` a
    failure reason or None, ``canon(answer)`` the golden-table form."""

    __slots__ = ("family", "m", "n", "types", "solve", "check", "canon")

    def __init__(self, family, m, n, types, solve, check, canon):
        self.family, self.m, self.n, self.types = family, m, n, types
        self.solve, self.check, self.canon = solve, check, canon


def _election(model, m, n, rng):
    spec = generators.GeneratorSpec(model=model, m=m, n=n, seed=rng.randrange(2**31))
    e = generators.generate(spec).election
    return e, tuple(v.ranking for v in e.voters)


# --- aggregate ----------------------------------------------------------


def _kemeny_task(model, e, orders):
    m, n = len(orders[0]), len(orders)
    w = checks.tally(orders, m)

    def solve():
        result = kemeny.kemeny_dp(e)
        return tuple(result.ranking.ranking), result.score, kemeny.avg_pairwise_distance(e)

    def check(answer):
        return checks.check_kemeny(w, n, *answer)

    def canon(answer):
        ranking, score, d_a = answer
        return [list(ranking), score, d_a]

    return Task(f"kemeny/{model}", m, n, checks.distinct_orders(orders), solve, check, canon)


def _dodgson_task(model, e, orders):
    m, n = len(orders[0]), len(orders)
    w = checks.tally(orders, m)

    def solve():
        return [dodgson.dodgson_score(e, c) for c in range(m)]

    def check(answer):
        winner = checks.condorcet(w, n)
        for c, solution in enumerate(answer):
            if solution is None:
                return f"dodgson target {c}: no solution"
            if (solution.score == 0) != (c == winner):
                return f"dodgson target {c}: score {solution.score}, Condorcet winner {winner}"
            err = checks.check_dodgson(orders, w, c, solution.score, solution.lifts)
            if err:
                return err
        return None

    def canon(answer):
        return [s.score for s in answer]

    return Task(f"dodgson/{model}", m, n, checks.distinct_orders(orders), solve, check, canon)


def aggregate_round(models, dodgson_ladder, seed, r, name):
    rng = random.Random(f"{name}:{seed}:{r}")
    tasks = []
    for i, m in enumerate(KEMENY_M):
        model = models[(r + i) % len(models)]
        tasks.append(_kemeny_task(model, *_election(model, m, KEMENY_N, rng)))
    for model, m, n in dodgson_ladder:
        tasks.append(_dodgson_task(model, *_election(model, m, n, rng)))
    return tasks


def aggregate_ic(seed, r):
    ladder = [("impartial-culture", m, n) for m, n in DODGSON_IC]
    return aggregate_round(("impartial-culture",), ladder, seed, r, "aggregate-ic")


def aggregate_structured(seed, r):
    return aggregate_round(STRUCTURED, DODGSON_STRUCTURED, seed, r, "aggregate-structured")


# --- attack -------------------------------------------------------------


def _plan_view(plan):
    actions = [(a.voter, a.new_order.ranking, a.cost, a.shift) for a in plan.actions]
    return plan.cost, actions, [v.ranking for v in plan.election.voters]


def _bribery_tasks(flavor, e, orders, rng):
    """Three solves of one instance: an open budget, then budget = optimum
    (a yes-instance) and budget = optimum - 1 (a no-instance)."""
    m, n = len(orders[0]), len(orders)
    rule = elections.ScoringVector.borda(m)
    alpha = rule.alpha
    scores = checks.positional_scores(orders, alpha, m)
    p = min(range(m), key=lambda c: (scores[c], c))
    if flavor == "swap":
        prices = [{pair: 1 for pair in combinations(range(m), 2)} for _ in range(n)]
        price_fn = bribery.SwapPriceFunction.unit(n, m)
        action_cost = checks.swap_cost(prices)
        open_budget = n * len(prices[0])

        def run(budget):
            return bribery.swap_bribery(e, rule, p, price_fn, budget)

    elif flavor == "shift":
        tariffs = [tuple(range(o.index(p) + 1)) for o in orders]
        tariff_fn = bribery.ShiftPriceFunction(tariffs)
        action_cost = checks.shift_cost(p, tariffs)
        open_budget = sum(t[-1] for t in tariffs)

        def run(budget):
            return bribery.shift_bribery(e, rule, p, tariff_fn, budget)

    else:
        voter_prices = (
            [1] * n if flavor == "unit" else [rng.randint(1, 3) for _ in range(n)]
        )
        action_cost = checks.rewrite_cost(voter_prices)
        open_budget = sum(voter_prices)
        as_tuple = None if flavor == "unit" else tuple(voter_prices)

        def run(budget):
            limit = bribery.BriberyBudget(budget, as_tuple)
            return bribery.unit_or_priced_bribery(e, rule, p, limit)

    found = {}

    def make(kind):
        def budget():
            if kind == "open":
                return open_budget
            return max(0, found["opt"] - (kind == "below"))

        def solve():
            limit = budget()
            return limit, run(limit)

        def check(answer):
            limit, plan = answer
            if plan is None:
                if kind == "below" and found["opt"] > 0:
                    return None
                return f"{flavor} {kind}: no plan within budget {limit}"
            if kind == "below" and found["opt"] > 0:
                return f"{flavor} below: plan of cost {plan.cost} under the optimum"
            if kind != "open" and plan.cost != found["opt"]:
                return f"{flavor} {kind}: cost {plan.cost}, optimum {found['opt']}"
            err = checks.check_plan(orders, alpha, p, limit, *_plan_view(plan), action_cost)
            if err is None and kind == "open":
                found["opt"] = plan.cost
            return err

        def canon(answer):
            return None if answer[1] is None else answer[1].cost

        return Task(f"{flavor}/{kind}", m, n, checks.distinct_orders(orders), solve, check, canon)

    return [make("open"), make("opt"), make("below")]


def _ccdv_tasks(e, orders, runner_up_ks=CCDV_RUNNER_UP_K):
    """Deletion control at a k ladder for the best-placed loser, and for
    the lowest scorer; verdicts must be monotone in k."""
    m, n = len(orders[0]), len(orders)
    scores = checks.approval_scores(orders, CCDV_D, m)
    losers = [c for c in range(m) if scores[c] < max(scores)] or list(range(m))
    runner_up = min(losers, key=lambda c: (-scores[c], c))
    lowest = min(range(m), key=lambda c: (scores[c], c))
    tasks = []
    for target, ks in ((runner_up, runner_up_ks), (lowest, (CCDV_LOWEST_K,))):
        verdicts = {}
        for k in ks:
            instance = control.ControlInstance(e, CCDV_D, target, k)

            def solve(instance=instance):
                return control.ccdv_fpt(instance)

            def check(witness, target=target, k=k, verdicts=verdicts):
                if witness is not None:
                    err = checks.check_deletion(orders, CCDV_D, target, k, witness)
                    if err:
                        return err
                return checks.check_monotone(verdicts, k, witness)

            tasks.append(
                Task(
                    f"ccdv/{'runner-up' if target == runner_up else 'lowest'}",
                    m,
                    n,
                    checks.distinct_orders(orders),
                    solve,
                    check,
                    lambda witness: witness is not None,
                )
            )
    return tasks


def attack(seed, r):
    rng = random.Random(f"attack:{seed}:{r}")
    tasks = []
    for flavor, m, n in BRIBERY_LADDER:
        e, orders = _election("impartial-culture", m, n, rng)
        tasks += _bribery_tasks(flavor, e, orders, rng)
    for i in range(CCDV_LOWEST_ELECTIONS):
        e, orders = _election("impartial-culture", CCDV_M, CCDV_N, rng)
        tasks += _ccdv_tasks(e, orders, CCDV_RUNNER_UP_K if i == 0 else ())
    return tasks


# --- cli-small ----------------------------------------------------------


def _election_text(orders):
    lines = [f"{len(orders[0])} {len(orders)}"] + [" ".join(map(str, o)) for o in orders]
    return "\n".join(lines) + "\n"


def run_cli(argv, stdin=None):
    """Run ``comsoc <argv>`` through the console script's entry point in
    this process, with ``stdin`` as standard input. Returns (exit code,
    stdout)."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin or ""), io.StringIO()
    try:
        return cli.main(argv), sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved


def _cli_task(family, argv, stdin, orders, check_payload):
    m = len(orders[0]) if orders else 0

    def solve():
        return run_cli(argv, stdin)

    def check(answer):
        code, out = answer
        if code not in (0, 1):
            return f"{family}: exit code {code}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return f"{family}: stdout is not JSON"
        if (code == 1) == bool(payload.get("yes", True)):
            return f"{family}: exit code {code} disagrees with yes={payload.get('yes')}"
        return check_payload(payload) if check_payload else None

    def canon(answer):
        payload = json.loads(answer[1])
        for key in ("bribed", "deleted"):
            payload.pop(key, None)
        return [answer[0], payload]

    types = checks.distinct_orders(orders) if orders else 0
    return Task(f"cli/{family}", m, len(orders), types, solve, check, canon)


def _read_orders(path):
    rows = [line.split("#", 1)[0].split() for line in path.read_text().splitlines()]
    rows = [r for r in rows if r][1:]
    return tuple(tuple(int(t) for t in r) for r in rows)


def _winners_check(orders, rule, d):
    m = len(orders[0])
    if rule == "plurality":
        alpha = (1,) + (0,) * (m - 1)
    elif rule == "borda":
        alpha = tuple(range(m - 1, -1, -1))
    else:
        alpha = (1,) * d + (0,) * (m - d)
    scores = checks.positional_scores(orders, alpha, m)
    w = checks.tally(orders, m)

    def check(payload):
        if payload["scores"] != scores:
            return f"winners: scores {payload['scores']} != recount {scores}"
        if payload["winners"] != [c for c in range(m) if scores[c] == max(scores)]:
            return "winners: wrong winner set"
        if payload["condorcet_winner"] != checks.condorcet(w, len(orders)):
            return "winners: wrong Condorcet winner"
        return None

    return check


def _kemeny_check(orders):
    w = checks.tally(orders, len(orders[0]))
    return lambda pl: checks.check_kemeny(w, len(orders), pl["ranking"], pl["score"], pl["d_a"])


def _dodgson_check(orders):
    w = checks.tally(orders, len(orders[0]))
    winner = checks.condorcet(w, len(orders))

    def check(payload):
        scores = payload["scores"]
        if len(scores) != len(w) or any((s == 0) != (c == winner) for c, s in enumerate(scores)):
            return f"dodgson: scores {scores} disagree with Condorcet winner {winner}"
        return None

    return check


def _ccdv_check(orders, d, p, k):
    def check(payload):
        if payload["yes"]:
            return checks.check_deletion(orders, d, p, k, payload["deleted"])
        return None if payload["deleted"] is None else "ccdv: no-answer with a witness"

    return check


def _bribe_check(budget):
    def check(payload):
        if payload["yes"] and not 0 <= payload["cost"] <= budget:
            return f"bribe: cost {payload['cost']} outside budget {budget}"
        return None

    return check


def _sp_check(orders):
    def check(payload):
        axis = payload.get("axis")
        if axis is not None and payload["single_peaked"] != checks.single_peaked(orders, axis):
            return f"structure: single-peakedness along {axis} misreported"
        if payload.get("single_peaked") and axis is None:
            return "structure: single-peaked without an axis"
        return None

    return check


def _gen_check(m, n):
    def check(payload):
        orders = payload["orders"]
        if len(orders) != n or any(sorted(o) != list(range(m)) for o in orders):
            return "gen: orders are not n permutations of 0..m-1"
        return None

    return check


def cli_small(seed, r):
    """One invocation of each of the ten subcommands on small inputs (the
    files under tests/data on odd rounds, generated elections on stdin),
    plus two brute-force Kemeny solves at m=6."""
    rng = random.Random(f"cli-small:{seed}:{r}")

    def election(model, m, n):
        orders = _election(model, m, n, rng)[1]
        return ["--in", "-"], _election_text(orders), orders

    def data_file(name):
        return ["--in", str(TESTS_DATA / name)], None, _read_orders(TESTS_DATA / name)

    if r % 2:
        e6, sp = data_file("election_4x3.soc"), data_file("election_sp_5x3.soc")
    else:
        e6, sp = election("impartial-culture", 6, 15), election("single-peaked", 6, 10)
    e5, e4 = election("impartial-culture", 5, 9), election("impartial-culture", 4, 5)
    tasks = []

    def add(command, argv, source, check, family=None):
        argv = [command, *source[0], *argv]
        tasks.append(_cli_task(family or command, argv, source[1], source[2], check))

    rule, d = (("plurality", None), ("borda", None), ("approval", 2))[r % 3]
    argv = ["--rule", rule] + (["--d", str(d)] if d else [])
    add("winners", argv, e6, _winners_check(e6[2], rule, d))
    add("kemeny", [], e6, _kemeny_check(e6[2]))
    # Two factorial brute-force solves per round put a block of fixed
    # compute at the top of the latency range, so the 90th percentile
    # measures work rather than process start-up jitter.
    for _ in range(2):
        bf = election("impartial-culture", 6, 13)
        add("kemeny", ["--method", "brute-force"], bf, _kemeny_check(bf[2]), "kemeny-bf")
    add("dodgson", [], e5, _dodgson_check(e5[2]))

    o6 = e6[2]
    approvals = checks.approval_scores(o6, 2, len(o6[0]))
    losers = [c for c, s in enumerate(approvals) if s < max(approvals)] or [0]
    p = min(losers, key=lambda c: (-approvals[c], c))
    add("ccdv", ["--target", str(p), "--d", "2", "--k", "2"], e6, _ccdv_check(o6, 2, p, 2))

    # Priced bribery needs a prices file; it is covered in-process by the
    # attack workload, so the CLI rotation keeps to stdin-only flavors.
    flavor = ("unit", "swap", "shift")[r % 3]
    borda = checks.positional_scores(e4[2], (3, 2, 1, 0), 4)
    target = min(range(4), key=lambda c: (borda[c], c))
    budget = rng.randint(1, 4)
    argv = ["--flavor", flavor, "--target", str(target), "--budget", str(budget), "--rule", "borda"]
    add("bribe", argv, e4, _bribe_check(budget))

    check = ("sp", "sc", "separable", "sp-voters", "sp-alts")[r % 5]
    add("structure", ["--check", check], sp, _sp_check(sp[2]) if check == "sp" else None)

    if r % 2:
        mab = (["--in", str(TESTS_DATA / "mab_small.json")], None, ())
    else:
        ballots = [sorted(rng.sample(range(6), rng.randint(1, 4))) for _ in range(7)]
        instance = {"m": 6, "ballots": ballots, "agenda": [rng.randrange(6)]}
        mab = (["--in", "-"], json.dumps(instance), ())
    add("mab", [], mab, None)

    circuit = (["--in", str(TESTS_DATA / "circuit_maj3.txt")], None, ())
    add("wcs", (["--weight", "2"], ["--metrics"], ["--weight", "0"])[r % 3], circuit, None)

    densities = (["--in", str(TESTS_DATA / "densities_2p.txt")], None, ())
    protocol = ("cut-and-choose", "last-diminisher")[r % 2]
    add("cake", ["--protocol", protocol], densities,
        lambda pl: None if pl["proportional"] else "cake: not proportional")

    model = generators.MODELS[r % 3]
    argv = ["--model", model, "--m", "6", "--n", "10", "--seed", str(rng.randrange(10**6))]
    add("gen", argv, ([], None, ()), _gen_check(6, 10))
    return tasks


WORKLOADS = {
    "aggregate-ic": aggregate_ic,
    "aggregate-structured": aggregate_structured,
    "attack": attack,
    "cli-small": cli_small,
}

# Rounds built during set-up and covered by the golden table; later rounds
# are built on demand and checked by certificates only.
POOL_ROUNDS = {"aggregate-ic": 24, "aggregate-structured": 24, "attack": 160, "cli-small": 24}
