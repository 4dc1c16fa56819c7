import heapq
import random
from itertools import combinations, permutations, product

import pytest

from comsoc.bribery import (
    BRANCH_MAX_N,
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
from comsoc.elections import Election, PreferenceOrder, ScoringVector, kendall_tau
from comsoc.errors import CapacityError
from comsoc.generators import GeneratorSpec, generate

from conftest import random_election


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
