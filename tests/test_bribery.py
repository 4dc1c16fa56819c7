import bisect
import heapq
import random
import subprocess
import sys
import time
from itertools import accumulate, combinations, permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comsoc import bribery
from comsoc.bribery import (
    BRANCH_MAX_N,
    SWAP_MAX_M,
    BriberyBudget,
    ShiftPriceFunction,
    SwapPriceFunction,
    apply_swap_sequence,
    bubble_sequence,
    min_cost_to_target,
    shift_bribery,
    swap_bribery,
    unit_or_priced_bribery,
)
from comsoc.elections import (
    Election,
    PreferenceOrder,
    ScoringVector,
    _wins,
    kendall_tau,
    scoring_winners,
)
from comsoc.errors import CapacityError
from comsoc.generators import GeneratorSpec, generate

from conftest import elections, random_election, src_env


def oracle_tally(orders, alpha, m):
    scores = [0] * m
    for order in orders:
        for pos, alt in enumerate(order):
            scores[alt] += alpha[pos]
    return scores


def oracle_wins(scores, p, unique=False):
    top = max(scores)
    return scores[p] == top and (not unique or scores.count(top) == 1)


def dijkstra_swap_cost(order, target, table):
    """Cheapest path in the permutation graph with priced adjacent swaps."""
    start, goal = tuple(order), tuple(target)
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, cur = heapq.heappop(heap)
        if cur == goal:
            return d
        if d > dist[cur]:
            continue
        for i in range(len(cur) - 1):
            swapped = list(cur)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            swapped = tuple(swapped)
            pair = (min(cur[i], cur[i + 1]), max(cur[i], cur[i + 1]))
            nd = d + table[pair]
            if swapped not in dist or nd < dist[swapped]:
                dist[swapped] = nd
                heapq.heappush(heap, (nd, swapped))
    raise AssertionError("unreachable target")


def random_price_table(rng, m, max_price=4):
    return {
        (a, b): rng.randint(0, max_price) for a, b in combinations(range(m), 2)
    }


class TestApplySwapSequence:
    def test_empty_sequence(self):
        prices = {(0, 1): 2, (0, 2): 3, (1, 2): 4}
        order, cost = apply_swap_sequence((0, 1, 2), (), prices)
        assert order.ranking == (0, 1, 2) and cost == 0

    def test_reversal_costs_three_unit_swaps(self):
        prices = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        seq = bubble_sequence((0, 1, 2), (2, 1, 0))
        order, cost = apply_swap_sequence((0, 1, 2), seq, prices)
        assert order.ranking == (2, 1, 0)
        assert cost == 3

    def test_non_adjacent_pair_rejected(self):
        prices = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        with pytest.raises(ValueError, match="swap 0"):
            apply_swap_sequence((0, 1, 2), ((0, 2),), prices)


class TestMinCostToTarget:
    def test_same_order_is_free(self):
        prices = {(0, 1): 5}
        assert min_cost_to_target((0, 1), (0, 1), prices) == 0

    def test_unit_prices_equal_kendall_tau(self):
        rng = random.Random(17)
        for _ in range(40):
            m = rng.randint(2, 6)
            prices = {(a, b): 1 for a, b in combinations(range(m), 2)}
            p = PreferenceOrder(rng.sample(range(m), m))
            q = PreferenceOrder(rng.sample(range(m), m))
            assert min_cost_to_target(p, q, prices) == kendall_tau(p, q)

    def test_matches_weighted_shortest_path(self):
        rng = random.Random(18)
        for trial in range(50):
            table = random_price_table(rng, 4)
            p = tuple(rng.sample(range(4), 4))
            q = tuple(rng.sample(range(4), 4))
            assert min_cost_to_target(p, q, table) == dijkstra_swap_cost(
                p, q, table
            ), f"trial {trial}"

    def test_bubble_sequence_realizes_the_bound(self):
        rng = random.Random(19)
        for _ in range(30):
            m = rng.randint(2, 5)
            table = random_price_table(rng, m)
            p = tuple(rng.sample(range(m), m))
            q = tuple(rng.sample(range(m), m))
            seq = bubble_sequence(p, q)
            # Each discordant pair is swapped exactly once.
            assert len(seq) == kendall_tau(p, q)
            order, cost = apply_swap_sequence(p, seq, table)
            assert order.ranking == q
            assert cost == min_cost_to_target(p, q, table)


def swap_oracle(e, alpha, p, price_fn, budget, unique=False):
    """Joint enumeration over every combination of per-voter target orders."""
    m = e.m
    best = None
    targets = list(permutations(range(m)))
    per_voter_costs = [
        {t: min_cost_to_target(v, t, price_fn.voter_table(vi)) for t in targets}
        for vi, v in enumerate(e.voters)
    ]
    for assignment in product(targets, repeat=e.n):
        cost = sum(per_voter_costs[vi][t] for vi, t in enumerate(assignment))
        if cost > budget or (best is not None and cost >= best):
            continue
        if oracle_wins(oracle_tally(assignment, alpha, m), p, unique):
            best = cost
    return best


class TestSwapBribery:
    def test_already_winning_is_free(self):
        e = Election([(0, 1, 2)] * 3)
        prices = SwapPriceFunction.unit(3, 3)
        plan = swap_bribery(e, ScoringVector.borda(3), 0, prices, 0)
        assert plan.cost == 0 and plan.actions == ()

    def test_huge_budget_always_buys_victory_for_borda(self):
        rng = random.Random(20)
        for _ in range(10):
            e = random_election(rng, 4, 3)
            prices = SwapPriceFunction.unit(e.n, e.m)
            budget = sum(
                max(
                    min_cost_to_target(v, t, prices.voter_table(vi))
                    for t in permutations(range(e.m))
                )
                for vi, v in enumerate(e.voters)
            )
            plan = swap_bribery(e, ScoringVector.borda(4), 2, prices, budget)
            assert plan is not None

    def test_capacity_limit(self):
        e = Election([tuple(range(7))])
        with pytest.raises(CapacityError):
            swap_bribery(e, ScoringVector.borda(7), 0, SwapPriceFunction.unit(1, 7), 1)

    def test_matches_joint_oracle(self):
        rng = random.Random(21)
        for trial in range(25):
            m = rng.randint(2, 4)
            n = rng.randint(1, 3 if m == 4 else 4)
            e = random_election(rng, m, n)
            price_fn = SwapPriceFunction(
                [random_price_table(rng, m) for _ in range(n)]
            )
            rule = ScoringVector.borda(m) if rng.random() < 0.5 else ScoringVector.plurality(m)
            p = rng.randrange(m)
            budget = rng.randint(0, 6)
            plan = swap_bribery(e, rule, p, price_fn, budget)
            best = swap_oracle(e, rule.alpha, p, price_fn, budget)
            if best is None:
                assert plan is None, f"trial {trial}"
            else:
                assert plan is not None and plan.cost == best, f"trial {trial}"

    def test_plan_revalidates(self):
        rng = random.Random(22)
        for _ in range(15):
            e = random_election(rng, 4, 3)
            price_fn = SwapPriceFunction([random_price_table(rng, 4) for _ in range(3)])
            plan = swap_bribery(e, ScoringVector.borda(4), 1, price_fn, 8)
            if plan is None:
                continue
            rebuilt = list(v for v in e.voters)
            total = 0
            for action in plan.actions:
                order, cost = apply_swap_sequence(
                    e.voters[action.voter], action.swaps, price_fn.voter_table(action.voter)
                )
                assert order == action.new_order
                assert action.cost == cost
                rebuilt[action.voter] = order
                total += cost
            assert total == plan.cost
            assert Election(rebuilt) == plan.election
            scores = oracle_tally([v.ranking for v in plan.election.voters], (3, 2, 1, 0), 4)
            assert oracle_wins(scores, 1)

    def test_shift_and_unit_plans_revalidate(self):
        rng = random.Random(30)
        for _ in range(15):
            m = rng.randint(2, 4)
            n = rng.randint(1, 4)
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            rule = ScoringVector.borda(m)
            shift_plan = shift_bribery(e, rule, p, ShiftPriceFunction.linear(e, p), 6)
            if shift_plan is not None:
                rebuilt = list(e.voters)
                total = 0
                for action in shift_plan.actions:
                    voter = e.voters[action.voter]
                    pos = voter.rank_of(p) - 1
                    r = list(voter.ranking)
                    del r[pos]
                    r.insert(pos - action.shift, p)
                    assert tuple(r) == action.new_order.ranking
                    assert action.cost == action.shift  # linear tariff
                    rebuilt[action.voter] = action.new_order
                    total += action.shift  # linear tariff: cost equals shift
                assert total == shift_plan.cost
                assert Election(rebuilt) == shift_plan.election
                scores = oracle_tally(
                    [v.ranking for v in shift_plan.election.voters], rule.alpha, m
                )
                assert oracle_wins(scores, p)
            unit_plan = unit_or_priced_bribery(e, rule, p, BriberyBudget(n))
            assert unit_plan is not None
            assert unit_plan.cost == len(unit_plan.actions)
            scores = oracle_tally(
                [v.ranking for v in unit_plan.election.voters], rule.alpha, m
            )
            assert oracle_wins(scores, p)


def shift_oracle(e, alpha, p, rhos, budget, unique=False):
    best = None
    ranges = [range(v.rank_of(p)) for v in e.voters]
    for ts in product(*ranges):
        cost = sum(rhos[vi][t] for vi, t in enumerate(ts))
        if cost > budget:
            continue
        orders = []
        for vi, t in enumerate(ts):
            r = list(e.voters[vi].ranking)
            pos = r.index(p)
            del r[pos]
            r.insert(pos - t, p)
            orders.append(tuple(r))
        if oracle_wins(oracle_tally(orders, alpha, e.m), p, unique):
            if best is None or cost < best:
                best = cost
    return best


class TestShiftBribery:
    def test_zero_budget_iff_already_winning(self):
        e = Election([(1, 0, 2)] * 3)
        tariffs = ShiftPriceFunction.linear(e, 0)
        assert shift_bribery(e, ScoringVector.plurality(3), 0, tariffs, 0) is None
        assert shift_bribery(e, ScoringVector.plurality(3), 1, ShiftPriceFunction.linear(e, 1), 0).cost == 0

    def test_single_voter_second_place(self):
        e = Election([(1, 0, 2)])
        tariffs = ShiftPriceFunction([(0, 3)])
        plan = shift_bribery(e, ScoringVector.plurality(3), 0, tariffs, 3)
        assert plan is not None and plan.cost == 3
        assert plan.actions[0].shift == 1
        assert shift_bribery(e, ScoringVector.plurality(3), 0, tariffs, 2) is None

    def test_tariff_validation(self):
        e = Election([(1, 0)])
        with pytest.raises(ValueError):
            ShiftPriceFunction([(1, 2)])
        with pytest.raises(ValueError):
            ShiftPriceFunction([(0, 2, 1)])
        with pytest.raises(ValueError):
            shift_bribery(
                e, ScoringVector.plurality(2), 0, ShiftPriceFunction([(0, 1, 2)]), 1
            )

    def test_matches_exhaustive_oracle_on_borda(self):
        rng = random.Random(23)
        for trial in range(30):
            m = rng.randint(2, 5)
            n = rng.randint(1, 5)
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            rhos = []
            for v in e.voters:
                rho = [0]
                for _ in range(v.rank_of(p) - 1):
                    rho.append(rho[-1] + rng.randint(0, 3))
                rhos.append(tuple(rho))
            tariffs = ShiftPriceFunction(rhos)
            budget = rng.randint(0, 8)
            plan = shift_bribery(e, ScoringVector.borda(m), p, tariffs, budget)
            best = shift_oracle(e, ScoringVector.borda(m).alpha, p, rhos, budget)
            if best is None:
                assert plan is None, f"trial {trial}"
            else:
                assert plan is not None and plan.cost == best, f"trial {trial}"

    def test_shift_cost_dominates_swap_cost_under_unit_prices(self):
        # Shifts are a restriction of swaps, so with unit prices everywhere
        # the swap optimum can only be cheaper or equal.
        rng = random.Random(24)
        for _ in range(20):
            m = rng.randint(2, 4)
            n = rng.randint(1, 3)
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            budget = 10
            shift_plan = shift_bribery(
                e, ScoringVector.borda(m), p, ShiftPriceFunction.linear(e, p), budget
            )
            swap_plan = swap_bribery(
                e, ScoringVector.borda(m), p, SwapPriceFunction.unit(n, m), budget
            )
            if shift_plan is not None:
                assert swap_plan is not None
                assert swap_plan.cost <= shift_plan.cost


def rewrite_oracle(e, alpha, p, budget, prices=None, unique=False):
    """Subset + full-rewrite enumeration, rewrites restricted to p-first."""
    m, n = e.m, e.n
    best = None
    rivals = [c for c in range(m) if c != p]
    rewrites = [(p,) + perm for perm in permutations(rivals)]
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            cost = size if prices is None else sum(prices[v] for v in subset)
            if cost > budget or (best is not None and cost >= best):
                continue
            for assignment in product(rewrites, repeat=size):
                orders = [v.ranking for v in e.voters]
                for vi, new in zip(subset, assignment):
                    orders[vi] = new
                if oracle_wins(oracle_tally(orders, alpha, m), p, unique):
                    best = cost
                    break
    return best


class TestUnitAndPricedBribery:
    def test_budget_n_unit_always_wins(self):
        rng = random.Random(25)
        for _ in range(10):
            e = random_election(rng, 4, 4)
            p = rng.randrange(4)
            plan = unit_or_priced_bribery(
                e, ScoringVector.borda(4), p, BriberyBudget(e.n)
            )
            assert plan is not None

    def test_zero_budget_iff_already_winning(self):
        e = Election([(2, 0, 1)] * 2)
        assert unit_or_priced_bribery(
            e, ScoringVector.plurality(3), 2, BriberyBudget(0)
        ).cost == 0
        assert unit_or_priced_bribery(
            e, ScoringVector.plurality(3), 0, BriberyBudget(0)
        ) is None

    def test_p_first_rewrites_lose_nothing(self):
        # Tiny full-rewrite oracle vs the p-first restriction.
        rng = random.Random(26)
        for trial in range(12):
            m = rng.randint(2, 3)
            n = rng.randint(1, 3)
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            budget = rng.randint(0, n)
            alpha = ScoringVector.borda(m).alpha
            full_best = None
            all_orders = list(permutations(range(m)))
            for size in range(budget + 1):
                for subset in combinations(range(n), size):
                    for assignment in product(all_orders, repeat=size):
                        orders = [v.ranking for v in e.voters]
                        for vi, new in zip(subset, assignment):
                            orders[vi] = new
                        if oracle_wins(oracle_tally(orders, alpha, m), p):
                            if full_best is None or size < full_best:
                                full_best = size
            restricted = rewrite_oracle(e, alpha, p, budget)
            assert full_best == restricted, f"trial {trial}"

    def test_matches_rewrite_oracle_plurality(self):
        rng = random.Random(27)
        for trial in range(30):
            m = rng.randint(2, 4)
            n = rng.randint(1, 5)
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            budget = rng.randint(0, n)
            plan = unit_or_priced_bribery(
                e, ScoringVector.plurality(m), p, BriberyBudget(budget)
            )
            best = rewrite_oracle(e, ScoringVector.plurality(m).alpha, p, budget)
            if best is None:
                assert plan is None, f"trial {trial}"
            else:
                assert plan is not None and plan.cost == best, f"trial {trial}"

    def test_priced_variant_matches_oracle(self):
        rng = random.Random(28)
        for trial in range(20):
            m = rng.randint(2, 4)
            n = rng.randint(1, 4)
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            prices = tuple(rng.randint(0, 4) for _ in range(n))
            budget = rng.randint(0, 6)
            plan = unit_or_priced_bribery(
                e, ScoringVector.borda(m), p, BriberyBudget(budget, prices)
            )
            best = rewrite_oracle(e, ScoringVector.borda(m).alpha, p, budget, prices)
            if best is None:
                assert plan is None, f"trial {trial}"
            else:
                assert plan is not None and plan.cost == best, f"trial {trial}"

    def test_capacity_limits(self):
        with pytest.raises(CapacityError):
            unit_or_priced_bribery(
                Election([tuple(range(7))]),
                ScoringVector.borda(7),
                0,
                BriberyBudget(1),
            )
        with pytest.raises(CapacityError, match="n <= 16"):
            unit_or_priced_bribery(
                Election([(0, 1, 2)] * 17), ScoringVector.borda(3), 2, BriberyBudget(1)
            )


class TestInstanceChecks:
    # Every alternative ties under Borda, so 0 already wins at cost 0.
    TIED = Election([(1, 0, 2), (2, 0, 1)])

    def solve(self, flavor, p, budget):
        e, rule = self.TIED, ScoringVector.borda(3)
        if flavor == "swap":
            return swap_bribery(e, rule, p, SwapPriceFunction.unit(e.n, e.m), budget)
        if flavor == "shift":
            return shift_bribery(e, rule, p, ShiftPriceFunction.linear(e, 0), budget)
        prices = None if flavor == "unit" else (1,) * e.n
        return unit_or_priced_bribery(e, rule, p, BriberyBudget(budget, prices))

    @pytest.mark.parametrize("flavor", ["unit", "priced", "swap", "shift"])
    @pytest.mark.parametrize("p, budget", [(3, 2), (-1, 2), (0, -1)])
    def test_bad_target_or_budget_rejected(self, flavor, p, budget):
        with pytest.raises(ValueError):
            self.solve(flavor, p, budget)

    @pytest.mark.parametrize("flavor", ["unit", "priced", "swap", "shift"])
    def test_valid_instance_is_free(self, flavor):
        assert self.solve(flavor, 0, 0).cost == 0

    def test_linear_tariffs_reject_bad_target(self):
        with pytest.raises(ValueError):
            ShiftPriceFunction.linear(self.TIED, 3)

    @pytest.mark.parametrize(
        "solve, message",
        [
            (lambda e, r: SwapPriceFunction([{(0, 1): -1}]), r"negative swap price for voter 0"),
            (
                lambda e, r: swap_bribery(
                    e, r, 0, SwapPriceFunction([{(0, 1): 1, (0, 2): 1}] * 2), 0
                ),
                r"voter 0 missing price for pair \(1, 2\)",
            ),
            # rho(0) = 0 and a nondecreasing rho rule out every negative price.
            (lambda e, r: ShiftPriceFunction([(0, -1)]), r"voter 0: rho must be nondecreasing"),
            (
                lambda e, r: shift_bribery(e, r, 0, ShiftPriceFunction([(0, 1)]), 0),
                r"1 tariffs for 2 voters",
            ),
            (lambda e, r: BriberyBudget(1, (1, -1)), r"voter prices must be nonnegative"),
            (
                lambda e, r: unit_or_priced_bribery(e, ScoringVector.borda(4), 0, BriberyBudget(0)),
                r"scoring vector length mismatch",
            ),
        ],
        ids=[
            "negative-swap",
            "missing-pair",
            "negative-shift",
            "tariff-count",
            "negative-voter",
            "rule-length",
        ],
    )
    def test_bad_prices_or_rule_rejected(self, solve, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve(self.TIED, ScoringVector.borda(3))

    @pytest.mark.parametrize("count", [1, 3])
    def test_price_count_must_equal_n(self, count):
        e, rule = self.TIED, ScoringVector.borda(3)
        with pytest.raises(ValueError, match="voter prices for 2 voters"):
            unit_or_priced_bribery(e, rule, 0, BriberyBudget(0, (1,) * count))
        with pytest.raises(ValueError, match="swap price tables for 2 voters"):
            swap_bribery(e, rule, 0, SwapPriceFunction.unit(count, e.m), 0)


class TestBranchCapacity:
    # Plurality scores 374, 371, 355: 0 wins as it stands, 2 does not.
    BIG = generate(GeneratorSpec("impartial-culture", 3, 1100, 1)).election

    def solve(self, flavor, p):
        e, rule = self.BIG, ScoringVector.plurality(3)
        if flavor == "swap":
            return swap_bribery(e, rule, p, SwapPriceFunction.unit(e.n, e.m), 5)
        return shift_bribery(e, rule, p, ShiftPriceFunction.linear(e, p), 5)

    @pytest.mark.parametrize("flavor", ["swap", "shift"])
    def test_too_many_voters_is_capacity_error(self, flavor):
        assert self.BIG.n > BRANCH_MAX_N
        with pytest.raises(CapacityError, match="n <= 500"):
            self.solve(flavor, 2)

    @pytest.mark.parametrize("flavor", ["swap", "shift"])
    def test_winner_is_free_at_any_size(self, flavor):
        plan = self.solve(flavor, 0)
        assert plan.cost == 0 and plan.actions == ()


class TestBudgetMonotonicity:
    def test_all_flavors(self):
        rng = random.Random(29)
        for trial in range(12):
            m = rng.randint(2, 4)
            n = rng.randint(1, 3)
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            rule = ScoringVector.borda(m)
            price_fn = SwapPriceFunction([random_price_table(rng, m) for _ in range(n)])
            tariffs = ShiftPriceFunction.linear(e, p)
            voter_prices = tuple(rng.randint(0, 3) for _ in range(n))
            b_small = rng.randint(0, 4)
            b_big = b_small + rng.randint(0, 4)
            checks = [
                lambda b: swap_bribery(e, rule, p, price_fn, b),
                lambda b: shift_bribery(e, rule, p, tariffs, b),
                lambda b: unit_or_priced_bribery(e, rule, p, BriberyBudget(min(b, n))),
                lambda b: unit_or_priced_bribery(e, rule, p, BriberyBudget(b, voter_prices)),
            ]
            for check in checks:
                if check(b_small) is not None:
                    assert check(b_big) is not None, f"trial {trial}"


def plain_cheapest_choice(options, m, p, unique, budget):
    """The swap and shift search without the per-rival bound: cuts on cost
    alone and tests each leaf with ``_wins``, so it is the oracle for the
    bounded search's result and witness, the option chosen for each voter."""
    n = len(options)
    best_cost = None
    best_chosen = None
    chosen = [None] * n

    def rec(vi, cost, scores):
        nonlocal best_cost, best_chosen
        if best_cost is not None and cost >= best_cost:
            return
        if vi == n:
            if _wins(scores, p, unique):
                best_cost = cost
                best_chosen = list(chosen)
            return
        for option in options[vi]:
            extra, _, column = option
            total = cost + extra
            if total > budget or (best_cost is not None and total >= best_cost):
                break
            chosen[vi] = option
            rec(vi + 1, total, [s + c for s, c in zip(scores, column)])

    rec(0, 0, [0] * m)
    return None if best_cost is None else (best_cost, best_chosen)


def with_plain_search(solve):
    """Run ``solve()`` with the unbounded search in place of the solver's."""
    bounded = bribery._cheapest_choice
    bribery._cheapest_choice = plain_cheapest_choice
    try:
        return solve()
    finally:
        bribery._cheapest_choice = bounded


def random_rule(rng, m):
    kind = rng.randrange(3)
    if kind == 0:
        return ScoringVector.borda(m)
    if kind == 1:
        return ScoringVector.plurality(m)
    return ScoringVector.d_approval(m, rng.randint(1, m))


def random_tariffs(rng, e, p, max_step=3):
    rhos = []
    for v in e.voters:
        rho = [0]
        for _ in range(v.rank_of(p) - 1):
            rho.append(rho[-1] + rng.randint(0, max_step))
        rhos.append(tuple(rho))
    return ShiftPriceFunction(rhos)


# The last entry is an open budget: no plan at these sizes costs that much.
BUDGETS = (0, 1, 3, 6, 1000)


def random_option_lists(rng):
    """``(m, options)``: raw option lists for up to 5 voters over up to 4
    alternatives, with cost ties, zero costs and columns of 0..3 points."""
    m = rng.randint(1, 4)
    options = []
    for _ in range(rng.randint(0, 5)):
        costs = sorted(rng.randint(0, 4) for _ in range(rng.randint(1, 5)))
        options.append(
            [(cost, j, tuple(rng.randint(0, 3) for _ in range(m))) for j, cost in enumerate(costs)]
        )
    return m, options


class TestBoundedSearch:
    def test_matches_plain_search_on_option_lists(self):
        rng = random.Random(31)
        for trial in range(400):
            m, options = random_option_lists(rng)
            p = rng.randrange(m)
            unique = rng.random() < 0.5
            budget = rng.choice(BUDGETS)
            assert bribery._cheapest_choice(options, m, p, unique, budget) == plain_cheapest_choice(
                options, m, p, unique, budget
            ), f"trial {trial}"

    def test_swap_plans_match_plain_search(self):
        rng = random.Random(32)
        found = 0
        for trial in range(120):
            m = rng.randint(2, 4)
            n = rng.randint(1, 3 if m == 4 else 4)
            e = random_election(rng, m, n)
            rule = random_rule(rng, m)
            p = rng.randrange(m)
            unique = rng.random() < 0.5
            price_fn = SwapPriceFunction([random_price_table(rng, m, 3) for _ in range(n)])
            budget = rng.choice(BUDGETS)
            plan = swap_bribery(e, rule, p, price_fn, budget, unique)
            assert plan == with_plain_search(
                lambda: swap_bribery(e, rule, p, price_fn, budget, unique)
            ), f"trial {trial}"
            found += plan is not None and plan.cost > 0
        assert found >= 30

    def test_shift_plans_match_plain_search(self):
        rng = random.Random(33)
        found = 0
        for trial in range(150):
            m = rng.randint(2, 5)
            n = rng.randint(1, 6)
            e = random_election(rng, m, n)
            rule = random_rule(rng, m)
            p = rng.randrange(m)
            unique = rng.random() < 0.5
            tariffs = random_tariffs(rng, e, p)
            budget = rng.choice(BUDGETS)
            plan = shift_bribery(e, rule, p, tariffs, budget, unique)
            assert plan == with_plain_search(
                lambda: shift_bribery(e, rule, p, tariffs, budget, unique)
            ), f"trial {trial}"
            found += plan is not None and plan.cost > 0
        assert found >= 30

    @settings(max_examples=60, deadline=None)
    @given(elections(max_m=4, max_n=4), st.data())
    def test_plans_match_plain_search_property(self, e, data):
        p = data.draw(st.integers(0, e.m - 1))
        unique = data.draw(st.booleans())
        budget = data.draw(st.sampled_from(BUDGETS))
        points = data.draw(st.lists(st.integers(0, 3), min_size=e.m, max_size=e.m))
        rule = ScoringVector(tuple(sorted(points, reverse=True)))
        if data.draw(st.booleans()):
            price_fn = SwapPriceFunction(
                [
                    {pair: data.draw(st.integers(0, 3)) for pair in combinations(range(e.m), 2)}
                    for _ in range(e.n)
                ]
            )
            solve = lambda: swap_bribery(e, rule, p, price_fn, budget, unique)
        else:
            rhos = []
            for v in e.voters:
                size = v.rank_of(p) - 1
                steps = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
                rhos.append(tuple(sum(steps[:t]) for t in range(size + 1)))
            tariffs = ShiftPriceFunction(rhos)
            solve = lambda: shift_bribery(e, rule, p, tariffs, budget, unique)
        assert solve() == with_plain_search(solve)


def plain_swap_options(e, alpha, prices):
    """Oracle: every target order priced by :func:`min_cost_to_target` on a
    fresh PreferenceOrder and tallied alone, sorted by (cost, target)."""
    targets = list(permutations(range(e.m)))
    columns = {t: tuple(oracle_tally([t], alpha, e.m)) for t in targets}
    options = []
    for vi, voter in enumerate(e.voters):
        table = sorted(
            (min_cost_to_target(voter, PreferenceOrder(t), prices.voter_table(vi)), t)
            for t in targets
        )
        options.append([(cost, t, columns[t]) for cost, t in table])
    return options


def plain_shift_options(e, alpha, p, tariffs):
    """Oracle: every shifted order built with ``_shifted`` and tallied alone."""
    options = []
    for vi, voter in enumerate(e.voters):
        shifted = [bribery._shifted(voter, p, t).ranking for t in range(voter.rank_of(p))]
        options.append(
            [(tariffs.cost(vi, t), t, tuple(oracle_tally([o], alpha, e.m))) for t, o in enumerate(shifted)]
        )
    return options


def option_rule(rng, m):
    """A rule of :func:`random_rule`, or a random nonincreasing vector."""
    if rng.random() < 0.25:
        return ScoringVector(tuple(sorted((rng.randint(0, 4) for _ in range(m)), reverse=True)))
    return random_rule(rng, m)


def option_instance(orders, m, p, rule, pair_prices, steps):
    """``(profile, alpha, p, swap prices, tariffs)`` for the option builders.

    Per voter, ``pair_prices`` holds one price per pair (in
    ``combinations`` order) and ``steps`` the tariff steps, of which the
    first ``position of p - 1`` are used. An Election needs a voter, so
    with no orders the profile is a stand-in holding just the ``m`` and
    ``voters`` that the builders read.
    """
    e = Election(orders) if orders else SimpleNamespace(m=m, voters=())
    pairs = list(combinations(range(m), 2))
    prices = SwapPriceFunction([dict(zip(pairs, row)) for row in pair_prices])
    tariffs = ShiftPriceFunction(
        [(0, *accumulate(row[: order.index(p)])) for order, row in zip(orders, steps)]
    )
    return e, rule.alpha, p, prices, tariffs


def seeded_option_instances(seed, count):
    """``count`` instances cycling m through 1..6, with n 0..6, pair prices
    and tariff steps 0..4 and the rules of :func:`option_rule`."""
    rng = random.Random(seed)
    for trial in range(count):
        m = 1 + trial % 6
        n = rng.randint(0, 6)
        orders = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        pair_prices = [[rng.randint(0, 4) for _ in range(m * (m - 1) // 2)] for _ in range(n)]
        steps = [[rng.randint(0, 4) for _ in range(m)] for _ in range(n)]
        yield option_instance(orders, m, rng.randrange(m), option_rule(rng, m), pair_prices, steps)


class TestOptionTables:
    """The per-solve option tables equal the per-option builders entry by
    entry: same ``(cost, key, column)`` in the same order."""

    def test_swap_options_match_plain_builder(self):
        for trial, (e, alpha, _, prices, _) in enumerate(seeded_option_instances(35, 360)):
            assert bribery._swap_options(e, alpha, prices) == plain_swap_options(
                e, alpha, prices
            ), f"trial {trial}"

    def test_shift_options_match_plain_builder(self):
        for trial, (e, alpha, p, _, tariffs) in enumerate(seeded_option_instances(36, 360)):
            assert bribery._shift_options(e, alpha, p, tariffs) == plain_shift_options(
                e, alpha, p, tariffs
            ), f"trial {trial}"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_options_match_plain_builders_property(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 6))
        orders = [tuple(data.draw(st.permutations(range(m)))) for _ in range(n)]
        prices = st.lists(st.integers(0, 4), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2)
        steps = st.lists(st.integers(0, 4), min_size=m, max_size=m)
        points = data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
        e, alpha, p, price_fn, tariffs = option_instance(
            orders,
            m,
            data.draw(st.integers(0, m - 1)),
            ScoringVector(tuple(sorted(points, reverse=True))),
            [data.draw(prices) for _ in range(n)],
            [data.draw(steps) for _ in range(n)],
        )
        assert bribery._swap_options(e, alpha, price_fn) == plain_swap_options(e, alpha, price_fn)
        assert bribery._shift_options(e, alpha, p, tariffs) == plain_shift_options(
            e, alpha, p, tariffs
        )


def plain_rival_bound(options, p, c, budget):
    """Oracle for ``_rival_bound``: each front entry pads a full row of its
    own, and the step is the entrywise minimum over the rows."""
    n = len(options)
    lows = [0] * (n + 1)
    tables = [[] for _ in range(n + 1)]
    tables[n] = [0]
    for vi in range(n - 1, -1, -1):
        table = tables[vi + 1]
        if not table:
            break
        front = []
        for cost, _, column in options[vi]:
            d = column[p] - column[c]
            if not front or d > front[-1][0]:
                while front and front[-1][1] == cost:
                    front.pop()
                front.append((d, cost))
        d_lo, d_hi = front[0][0], front[-1][0]
        rows = [
            [cost + table[0]] * (d - d_lo) + [cost + x for x in table] + [budget + 1] * (d_hi - d)
            for d, cost in front
        ]
        step = list(map(min, zip(*rows)))
        del step[bisect.bisect_right(step, budget) :]
        lows[vi], tables[vi] = lows[vi + 1] + d_lo, step
    return lows, tables


def assert_bounds_match(options, m, p, budget, label):
    for c in range(m):
        if c != p:
            assert bribery._rival_bound(options, p, c, budget) == plain_rival_bound(
                options, p, c, budget
            ), f"{label}, p={p}, c={c}, budget={budget}"


class TestRivalBound:
    """The in-place min-plus step gives the row-padding step's tables for
    every rival, preferred alternative and budget."""

    def test_matches_plain_bound_on_option_lists(self):
        rng = random.Random(37)
        for trial in range(300):
            m, options = random_option_lists(rng)
            for p in range(m):
                for budget in BUDGETS:
                    assert_bounds_match(options, m, p, budget, f"trial {trial}")

    def test_matches_plain_bound_on_swap_and_shift_options(self):
        for trial, (e, alpha, p, prices, tariffs) in enumerate(seeded_option_instances(38, 90)):
            swap = bribery._swap_options(e, alpha, prices)
            shift = bribery._shift_options(e, alpha, p, tariffs)
            for budget in BUDGETS:
                for q in range(e.m):
                    assert_bounds_match(swap, e.m, q, budget, f"swap trial {trial}")
                assert_bounds_match(shift, e.m, p, budget, f"shift trial {trial}")

    def test_open_budget_tables_match_at_500_voters(self):
        # Wide tables: every margin the 500 voters reach stays in budget.
        e = generate(GeneratorSpec("impartial-culture", 4, 500, 1)).election
        rule = ScoringVector.borda(4)
        options = bribery._swap_options(e, rule.alpha, SwapPriceFunction.unit(e.n, e.m))
        assert_bounds_match(options, e.m, 0, 10**6, "IC m=4 n=500")


class TestSwapPrices:
    FULL = {pair: 1 for pair in combinations(range(3), 2)}

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="not a distinct pair"):
            SwapPriceFunction([{**self.FULL, (2, 2): 5}])

    @pytest.mark.parametrize("table", [{(0, 1): 1, (1, 0): 7}, [((0, 1), 1), ((0, 1), 7)]])
    def test_two_prices_for_one_pair_rejected(self, table):
        with pytest.raises(ValueError, match="two prices for pair"):
            SwapPriceFunction([table])

    def test_one_pair_named_twice_at_one_price_is_kept(self):
        assert SwapPriceFunction([[((1, 0), 3), ((0, 1), 3)]]).tables == ({(0, 1): 3},)

    @pytest.mark.parametrize("pair", [(0, 9), (-1, 2), (0, 3)])
    def test_alternative_outside_the_election_rejected(self, pair):
        e = Election([(0, 1, 2), (2, 1, 0)])
        prices = SwapPriceFunction([{**self.FULL, pair: 5}, self.FULL])
        with pytest.raises(ValueError, match="outside 0..2"):
            prices.check_complete(e.m)
        with pytest.raises(ValueError, match="outside 0..2"):
            swap_bribery(e, ScoringVector.borda(3), 1, prices, 3)


def full_rewrite_feasible(e, alpha, p, subset, unique, tables=None):
    """Oracle: the rewrite search over every sequence of rival orderings,
    cut only when a rival overshoots. ``tables`` is ignored; it is there so
    that this can stand in for the solver's search."""
    m = e.m
    fixed = [v.ranking for i, v in enumerate(e.voters) if i not in subset]
    scores = oracle_tally(fixed, alpha, m)
    p_final = scores[p] + len(subset) * alpha[0]
    rivals = [c for c in range(m) if c != p]
    subset = sorted(subset)

    def overshoot(sc):
        for c in rivals:
            if sc[c] > p_final or (unique and sc[c] == p_final):
                return True
        return False

    found = []

    def rec(idx, sc):
        if overshoot(sc):
            return False
        if idx == len(subset):
            return True
        for perm in permutations(rivals):
            sc2 = list(sc)
            for pos, alt in enumerate(perm, start=1):
                sc2[alt] += alpha[pos]
            if rec(idx + 1, sc2):
                found.append((subset[idx], (p,) + perm))
                return True
        return False

    if rec(0, scores):
        return {vi: PreferenceOrder(order) for vi, order in found}
    return None


def with_full_rewrite_search(solve):
    """Run ``solve()`` with the full rewrite search in place of the solver's."""
    cut = bribery._rewrite_feasible
    bribery._rewrite_feasible = full_rewrite_feasible
    try:
        return solve()
    finally:
        bribery._rewrite_feasible = cut


# As BUDGETS, plus 2 and 5: unit plans at these sizes often cost 2 to 5.
REWRITE_BUDGETS = (0, 1, 2, 3, 5, 1000)


class TestRewriteSearch:
    def test_plans_match_full_search(self):
        rng = random.Random(34)
        found = 0
        for trial in range(300):
            m = rng.randint(1, 4)
            n = rng.randint(1, 6)
            e = random_election(rng, m, n)
            rule = random_rule(rng, m)
            p = rng.randrange(m)
            unique = rng.random() < 0.5
            # Every other instance is priced, zero prices included.
            prices = None if trial % 2 else tuple(rng.randint(0, 3) for _ in range(n))
            budget = BriberyBudget(rng.choice(REWRITE_BUDGETS), prices)
            plan = unit_or_priced_bribery(e, rule, p, budget, unique)
            assert plan == with_full_rewrite_search(
                lambda: unit_or_priced_bribery(e, rule, p, budget, unique)
            ), f"trial {trial}"
            found += plan is not None and len(plan.actions) > 1
        # Plans that rewrite two or more voters exercise the symmetry cut.
        assert found >= 20

    @settings(max_examples=60, deadline=None)
    @given(elections(max_m=4, max_n=6), st.data())
    def test_plans_match_full_search_property(self, e, data):
        p = data.draw(st.integers(0, e.m - 1))
        unique = data.draw(st.booleans())
        points = data.draw(st.lists(st.integers(0, 3), min_size=e.m, max_size=e.m))
        rule = ScoringVector(tuple(sorted(points, reverse=True)))
        prices = data.draw(
            st.none() | st.lists(st.integers(0, 3), min_size=e.n, max_size=e.n).map(tuple)
        )
        budget = BriberyBudget(data.draw(st.sampled_from(REWRITE_BUDGETS)), prices)
        solve = lambda: unit_or_priced_bribery(e, rule, p, budget, unique)
        assert solve() == with_full_rewrite_search(solve)


def lowest_borda_scorer(e):
    scores = scoring_winners(e, ScoringVector.borda(e.m)).scores
    return min(range(e.m), key=lambda c: (scores[c], c))


class TestCliffs:
    """Former cliff instances: the swap and shift rows each took over 30 s
    for the search that cut on cost alone."""

    def test_swap_impartial_culture_m5_n10(self):
        e = generate(GeneratorSpec("impartial-culture", 5, 10, 1)).election
        rule, p = ScoringVector.borda(5), lowest_borda_scorer(e)
        prices = SwapPriceFunction.unit(e.n, e.m)
        start = time.perf_counter()
        assert swap_bribery(e, rule, p, prices, 8) is None
        plan = swap_bribery(e, rule, p, prices, 1000)
        assert time.perf_counter() - start < 5
        # The open-budget optimum lies above 8, as the refusal at 8 says.
        assert plan.cost == 13
        rebuilt = list(e.voters)
        total = 0
        for action in plan.actions:
            order, cost = apply_swap_sequence(
                e.voters[action.voter], action.swaps, prices.voter_table(action.voter)
            )
            assert order == action.new_order
            rebuilt[action.voter] = order
            total += cost
        assert total == plan.cost
        assert oracle_wins(oracle_tally([v.ranking for v in rebuilt], rule.alpha, e.m), p)
        assert swap_bribery(e, rule, p, prices, plan.cost - 1) is None

    def test_shift_impartial_culture_m6_n40(self):
        e = generate(GeneratorSpec("impartial-culture", 6, 40, 1)).election
        rule, p = ScoringVector.borda(6), lowest_borda_scorer(e)
        tariffs = ShiftPriceFunction.linear(e, p)
        start = time.perf_counter()
        plan = shift_bribery(e, rule, p, tariffs, 20)
        assert time.perf_counter() - start < 5
        assert plan.cost == 11
        rebuilt = [v.ranking for v in e.voters]
        total = 0
        for action in plan.actions:
            r = list(rebuilt[action.voter])
            pos = r.index(p)
            del r[pos]
            r.insert(pos - action.shift, p)
            assert tuple(r) == action.new_order.ranking
            rebuilt[action.voter] = tuple(r)
            total += tariffs.cost(action.voter, action.shift)
        assert total == plan.cost
        assert oracle_wins(oracle_tally(rebuilt, rule.alpha, e.m), p)
        start = time.perf_counter()
        assert shift_bribery(e, rule, p, tariffs, plan.cost - 1) is None
        assert time.perf_counter() - start < 5

    def test_swap_capacity_edge_m6_n500(self):
        # The largest swap instance the limits admit. Building every option
        # through PreferenceOrder pairs took 2.6 s (one core of a 2-core
        # x86-64 container, Python 3.11) before the search began.
        e = generate(GeneratorSpec("impartial-culture", SWAP_MAX_M, BRANCH_MAX_N, 1)).election
        rule, p = ScoringVector.borda(e.m), lowest_borda_scorer(e)
        prices = SwapPriceFunction.unit(e.n, e.m)
        start = time.perf_counter()
        assert swap_bribery(e, rule, p, prices, 3) is None
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("n, cost", [(14, 6), (16, 7)])
    def test_unit_single_peaked_m6(self, n, cost):
        # Over 20 s (n = 14) and over 100 s (n = 16) for the full rewrite
        # search.
        e = generate(GeneratorSpec("single-peaked", 6, n, 1)).election
        rule, p = ScoringVector.borda(6), lowest_borda_scorer(e)
        start = time.perf_counter()
        plan = unit_or_priced_bribery(e, rule, p, BriberyBudget(n))
        assert time.perf_counter() - start < 2
        assert plan.cost == cost == len(plan.actions)
        rebuilt = [v.ranking for v in e.voters]
        for action in plan.actions:
            assert action.new_order.ranking[0] == p
            rebuilt[action.voter] = action.new_order.ranking
        assert oracle_wins(oracle_tally(rebuilt, rule.alpha, e.m), p)
        start = time.perf_counter()
        assert unit_or_priced_bribery(e, rule, p, BriberyBudget(cost - 1)) is None
        assert time.perf_counter() - start < 2


def test_losing_plan_is_refused_under_optimize():
    # A bare assert would vanish under -O; the plan check must not.
    script = (
        "from comsoc.bribery import _finish_plan\n"
        "from comsoc.elections import Election, ScoringVector\n"
        "e = Election([(0, 1, 2)] * 3)\n"
        "try:\n"
        "    _finish_plan(e, ScoringVector.borda(3), 2, 'swap', [], 0, False)\n"
        "except AssertionError as err:\n"
        "    print(err)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "swap plan leaves 2 losing"
