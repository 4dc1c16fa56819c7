import random
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings

from comsoc.dodgson import (
    DodgsonSolution,
    build_program,
    dodgson_bruteforce,
    dodgson_decision,
    dodgson_score,
)
from comsoc.elections import Election, condorcet_winner
from comsoc.errors import CapacityError
from comsoc.generators import MODELS, GeneratorSpec, generate

from conftest import elections, multiplicity_heavy, seeded_elections


def check_solution(e, c, solution: DodgsonSolution):
    """Re-validate a witness against the program invariants."""
    program = build_program(e, c)
    assert len(solution.lifts) == len(program.types)
    score = 0
    gained = [0] * e.m
    for i, (_, count) in enumerate(program.types):
        counts = solution.lifts[i]
        assert len(counts) == program.max_lift(i) + 1
        assert all(x >= 0 for x in counts)
        assert sum(counts) == count
        for j, cnt in enumerate(counts):
            score += j * cnt
            if cnt:
                for y in program.passed[i][:j]:
                    gained[y] += cnt
    assert score == solution.score
    for y in range(e.m):
        if y != c:
            assert gained[y] >= program.deficits[y]


class TestBuildProgram:
    def test_condorcet_winner_has_zero_deficits(self, election_4x3):
        program = build_program(election_4x3, 0)
        assert program.deficits == (0, 0, 0, 0)

    def test_doc_election_target_a2(self, election_4x3):
        program = build_program(election_4x3, 1)
        assert program.deficits == (1, 0, 0, 0)

    def test_unanimous_top_choice(self):
        e = Election([(1, 0, 2)] * 3)
        program = build_program(e, 1)
        assert program.deficits == (0, 0, 0)
        assert len(program.types) == 1
        assert program.max_lift(0) == 0

    def test_gain_monotone_in_lift(self):
        for seed, e in seeded_elections(61000, 25, max_m=5, max_n=5):
            for c in range(e.m):
                program = build_program(e, c)
                for i, (order, _) in enumerate(program.types):
                    # A lift by j passes passed[i][:j]: the alternatives
                    # above c, nearest first, so gains grow with the lift.
                    above = order.ranking[: order.rank_of(c) - 1]
                    assert program.passed[i] == above[::-1], f"seed {seed}"
                    assert program.max_lift(i) == len(above), f"seed {seed}"


class TestScore:
    def test_doc_election_goldens(self, election_4x3):
        assert dodgson_score(election_4x3, 0).score == 0
        assert dodgson_score(election_4x3, 1).score == 1
        assert dodgson_score(election_4x3, 2).score == 2
        assert dodgson_score(election_4x3, 3).score == 5

    def test_witnesses_satisfy_program(self, election_4x3):
        for c in range(4):
            check_solution(election_4x3, c, dodgson_score(election_4x3, c))

    def test_zero_iff_condorcet_winner(self):
        for seed, e in seeded_elections(62000, 40, max_m=5, max_n=5):
            winner = condorcet_winner(e)
            for c in range(e.m):
                score = dodgson_score(e, c).score
                assert (score == 0) == (winner == c), f"seed {seed}"

    def test_invalid_target_rejected(self, election_4x3):
        with pytest.raises(ValueError):
            dodgson_score(election_4x3, 4)


class TestDecision:
    def test_doc_election(self, election_4x3):
        assert dodgson_decision(election_4x3, 0, 0)
        assert not dodgson_decision(election_4x3, 1, 0)
        assert dodgson_decision(election_4x3, 1, 1)

    def test_global_swap_budget_always_enough(self):
        for seed, e in seeded_elections(62500, 15, max_m=4, max_n=4):
            budget = e.n * e.m * (e.m - 1) // 2
            for c in range(e.m):
                assert dodgson_decision(e, c, budget), f"seed {seed}"


class TestBruteForce:
    def test_condorcet_winner_is_zero(self, election_4x3):
        assert dodgson_bruteforce(election_4x3, 0, 3) == 0

    def test_budget_zero_without_winner(self, election_4x3):
        assert dodgson_bruteforce(election_4x3, 1, 0) is None

    def test_negative_cap_rejected(self):
        # 0 is the Condorcet winner, so a cap of -1 must not answer 0.
        e = Election([(0, 1, 2), (0, 2, 1), (1, 0, 2)])
        assert not dodgson_decision(e, 0, -1)
        with pytest.raises(ValueError):
            dodgson_bruteforce(e, 0, -1)

    def test_capacity_limits(self):
        big = Election([tuple(range(6))] * 3)
        with pytest.raises(CapacityError):
            dodgson_bruteforce(big, 0, 2)
        small = Election([(0, 1, 2)])
        with pytest.raises(CapacityError):
            dodgson_bruteforce(small, 0, 9)

    def test_matches_program_on_random_instances(self):
        for seed, e in seeded_elections(63000, 60, max_m=4, max_n=4):
            for c in range(e.m):
                score = dodgson_score(e, c).score
                cap = min(score, 8)
                got = dodgson_bruteforce(e, c, cap)
                if score <= 8:
                    assert got == score, f"seed {seed} target {c}"
                else:
                    assert got is None, f"seed {seed} target {c}"

    def test_matches_program_with_duplicated_voters(self):
        # Grouping equal orders into types must not change the optimum.
        rng = random.Random(123)
        for trial in range(25):
            m = rng.randint(2, 4)
            base = rng.sample(range(m), m)
            others = [rng.sample(range(m), m) for _ in range(rng.randint(0, 1))]
            e = Election([base, base] + others)
            for c in range(m):
                score = dodgson_score(e, c).score
                assert dodgson_bruteforce(e, c, min(score, 8)) == (
                    score if score <= 8 else None
                ), f"trial {trial}"


def naive_lift_optimum(e, c):
    """Ungrouped, unpruned lift enumeration over all voters."""
    from itertools import product

    from comsoc.elections import majority_matrix

    wins = majority_matrix(e)
    need = {y: max(0, (e.n // 2 + 1) - wins[c][y]) for y in range(e.m) if y != c}
    ranges = [range(v.rank_of(c)) for v in e.voters]
    best = None
    for lifts in product(*ranges):
        gained = dict.fromkeys(need, 0)
        cost = 0
        for v, t in zip(e.voters, lifts):
            cost += t
            pos = v.rank_of(c) - 1
            for passed in v.ranking[pos - t : pos]:
                if passed in gained:
                    gained[passed] += 1
        if all(gained[y] >= need[y] for y in need):
            if best is None or cost < best:
                best = cost
    return best


def test_typing_is_lossless_on_multiplicity_heavy_profiles():
    # The typed search must agree with per-voter enumeration even when
    # types carry large multiplicities (where pruning bugs would hide).
    rng = random.Random(24680)
    for trial in range(40):
        m = rng.randint(2, 4)
        orders = []
        for _ in range(rng.randint(1, 3)):
            order = tuple(rng.sample(range(m), m))
            orders.extend([order] * rng.randint(1, 3))
        e = Election(orders[:7])
        for c in range(m):
            assert dodgson_score(e, c).score == naive_lift_optimum(e, c), f"trial {trial}"


def plain_allocation_search(e, c):
    """The former solver, kept as the score oracle: every allocation of
    every type's voters over its useful lifts, sorted by cost, then a
    recursive branch and bound over types."""
    program = build_program(e, c)
    active = [y for y in range(e.m) if program.deficits[y] > 0]
    ntypes = len(program.types)
    if not active:
        lifts = tuple((count,) + (0,) * program.max_lift(i) for i, (_, count) in enumerate(program.types))
        return DodgsonSolution(lifts, 0)
    slot = {y: k for k, y in enumerate(active)}

    def allocations(multiplicity, lifts):
        out = []

        def rec(idx, left, cost, counts):
            if idx == len(lifts):
                out.append((cost, tuple(counts) + (left,)))
                return
            j = lifts[idx]
            for take in range(left + 1):
                counts.append(take)
                rec(idx + 1, left - take, cost + j * take, counts)
                counts.pop()

        rec(0, multiplicity, 0, [])
        return out

    useful = []
    options = []
    for i, (_, count) in enumerate(program.types):
        lifts = [
            j
            for j in range(1, program.max_lift(i) + 1)
            if program.deficits[program.passed[i][j - 1]] > 0
        ]
        useful.append(lifts)
        per_type = []
        for cost, counts in sorted(allocations(count, lifts)):
            gains = [0] * len(active)
            for j, cnt in zip(lifts, counts):
                if cnt:
                    for y in program.passed[i][:j]:
                        if y in slot:
                            gains[slot[y]] += cnt
            per_type.append((cost, counts, tuple(gains)))
        options.append(per_type)

    potential = [(0,) * len(active)] * (ntypes + 1)
    for i in range(ntypes - 1, -1, -1):
        count = program.types[i][1]
        above = set(program.passed[i])
        potential[i] = tuple(
            p + (count if y in above else 0) for p, y in zip(potential[i + 1], active)
        )

    best_cost = None
    best_counts = None
    chosen = [None] * ntypes

    def rec(i, cost, remaining):
        nonlocal best_cost, best_counts
        lower = cost + sum(remaining)
        if best_cost is not None and lower >= best_cost:
            return
        if not any(remaining):
            best_cost = cost
            best_counts = list(chosen)
            for k in range(i, ntypes):
                best_counts[k] = tuple(0 for _ in useful[k])
            return
        if i == ntypes:
            return
        for r, p in zip(remaining, potential[i]):
            if r > p:
                return
        for opt_cost, counts, gains in options[i]:
            if best_cost is not None and cost + opt_cost >= best_cost:
                break
            chosen[i] = counts
            rec(
                i + 1,
                cost + opt_cost,
                tuple([r - g if r > g else 0 for r, g in zip(remaining, gains)]),
            )
        chosen[i] = None

    rec(0, 0, tuple(program.deficits[y] for y in active))
    if best_cost is None:
        return None
    lifts = []
    for i, (_, count) in enumerate(program.types):
        counts = [0] * (program.max_lift(i) + 1)
        taken = 0
        for j, cnt in zip(useful[i], best_counts[i]):
            counts[j] = cnt
            taken += cnt
        counts[0] = count - taken
        lifts.append(tuple(counts))
    return DodgsonSolution(tuple(lifts), best_cost)


class TestStageSearch:
    def test_scores_match_plain_allocation_search(self):
        for k in range(150):
            rng = random.Random(64000 + k)
            model = MODELS[k % 3]
            m, n = rng.randint(2, 6), rng.randint(1, 15)
            e = generate(GeneratorSpec(model, m, n, 64000 + k)).election
            for c in range(m):
                assert dodgson_score(e, c).score == plain_allocation_search(e, c).score, (
                    f"{model} seed {64000 + k} target {c}"
                )

    def test_scores_match_plain_allocation_search_with_multiplicities(self):
        for k in range(60):
            rng = random.Random(65000 + k)
            e = multiplicity_heavy(rng, rng.randint(2, 5), 4, 8)
            for c in range(e.m):
                solution = dodgson_score(e, c)
                assert solution.score == plain_allocation_search(e, c).score, f"seed {65000 + k}"
                check_solution(e, c, solution)

    def test_witness_is_lexicographically_smallest_optimum(self):
        # Oracle: every allocation of every type over lifts 0..max, useful
        # or not; among the optima, the smallest sequence of rows[1:].
        for k in range(300):
            rng = random.Random(66000 + k)
            m = rng.randint(2, 4)
            if k % 2:
                e = multiplicity_heavy(rng, m, 3, 3)
                e = Election(e.voters[:5])
            else:
                e = Election([rng.sample(range(m), m) for _ in range(rng.randint(1, 5))])
            for c in range(m):
                program = build_program(e, c)
                per_type = []
                for i, (_, count) in enumerate(program.types):
                    rows = product(range(count + 1), repeat=program.max_lift(i) + 1)
                    per_type.append([row for row in rows if sum(row) == count])
                best = None
                for rows in product(*per_type):
                    gained = [0] * m
                    cost = 0
                    for i, row in enumerate(rows):
                        for j, cnt in enumerate(row):
                            cost += j * cnt
                            for y in program.passed[i][:j]:
                                gained[y] += cnt
                    if any(gained[y] < program.deficits[y] for y in range(m)):
                        continue
                    key = (cost, tuple(row[1:] for row in rows))
                    if best is None or key < best[0]:
                        best = (key, rows)
                solution = dodgson_score(e, c)
                assert solution.score == best[0][0], f"seed {66000 + k} target {c}"
                assert solution.lifts == best[1], f"seed {66000 + k} target {c}"

    def test_many_types_do_not_recurse(self):
        # 1,101 distinct orders with 0 above 2..7 and a deficit of one
        # against 1: one frame per type would exceed the recursion limit.
        orders = [o for o in permutations(range(8)) if all(o.index(0) < o.index(y) for y in range(2, 8))]
        below = [o for o in orders if o.index(1) > o.index(0)][:550]
        above = [o for o in orders if o.index(1) < o.index(0)][:551]
        e = Election(below + above)
        solution = dodgson_score(e, 0)
        assert solution.score == 1
        check_solution(e, 0, solution)


def plain_stage_search(e, c):
    """The stage search without the memo, kept as the oracle for scores
    and witnesses."""
    program = build_program(e, c)
    active = [y for y in range(e.m) if program.deficits[y] > 0]
    slot = {y: k for k, y in enumerate(active)}
    # rows[i][0] counts the untouched voters of type i, rows[i][j] those
    # lifted by j; the search updates them in place.
    rows = [[count] + [0] * program.max_lift(i) for i, (_, count) in enumerate(program.types)]

    # Stages as (row, j, deficit slots a lift by j passes, potential). The
    # potential, set only on a type's first stage, counts per deficit the
    # voters of this and later types who rank it above c.
    stages = []
    potential = (0,) * len(active)
    for i in range(len(rows) - 1, -1, -1):
        passed = program.passed[i]
        lifts = [j for j in range(len(passed), 0, -1) if passed[j - 1] in slot]
        if not lifts:
            continue
        potential = tuple(
            p + program.types[i][1] if y in passed else p for p, y in zip(potential, active)
        )
        for j in lifts:
            slots = tuple(slot[y] for y in passed[:j] if y in slot)
            stages.append((rows[i], j, slots, potential if j == lifts[-1] else None))
    stages.reverse()

    best = None
    best_lifts = None
    # Frames are [stage, cost, remaining deficits, next count].
    stack = [[0, 0, tuple(program.deficits[y] for y in active), 0]]
    while stack:
        frame = stack[-1]
        s, cost, remaining, x = frame
        if x == 0:
            if best is not None and cost + sum(remaining) >= best:
                stack.pop()
                continue
            if not any(remaining):
                best = cost
                best_lifts = tuple(map(tuple, rows))
                stack.pop()
                continue
            if s == len(stages):
                stack.pop()
                continue
            row, j, slots, potential = stages[s]
            if potential is not None and any(r > p for r, p in zip(remaining, potential)):
                stack.pop()
                continue
        else:
            row, j, slots, _ = stages[s]
            if not row[0] or (best is not None and cost + x * j >= best):
                row[0] += row[j]
                row[j] = 0
                stack.pop()
                continue
            row[0] -= 1
            row[j] = x
            remaining = list(remaining)
            for k in slots:
                remaining[k] = remaining[k] - x if remaining[k] > x else 0
            remaining = tuple(remaining)
        frame[3] = x + 1
        stack.append([s + 1, cost + x * j, remaining, 0])

    if best is None:
        return None
    return DodgsonSolution(best_lifts, best)


class TestMemo:
    def test_matches_plain_stage_search(self):
        # Scores and witnesses, down to the tie-break, on all three models
        # with every third profile rebuilt with heavy multiplicities.
        for k in range(150):
            rng = random.Random(67000 + k)
            m, n = rng.randint(2, 6), rng.randint(1, 19)
            if k % 3 == 2:
                e = multiplicity_heavy(rng, m, 4, 4)
            else:
                e = generate(GeneratorSpec(MODELS[k // 3 % 3], m, n, 67000 + k)).election
            for c in range(e.m):
                solution = dodgson_score(e, c)
                assert solution == plain_stage_search(e, c), f"seed {67000 + k} target {c}"

    @settings(max_examples=150, deadline=None)
    @given(elections())
    def test_matches_plain_stage_search_property(self, e):
        for c in range(e.m):
            assert dodgson_score(e, c) == plain_stage_search(e, c)


MULTIPLICITY_PROFILE = Election(
    [(0, 3, 4, 2, 1, 5)] * 6
    + [(1, 0, 3, 4, 5, 2)] * 5
    + [(1, 2, 4, 3, 5, 0)] * 7
    + [(5, 2, 1, 3, 4, 0)] * 2
)


class TestCliffs:
    # Each took 2 to 37 s without the first-stage memo; the bound is
    # generous for slow machines.
    @pytest.mark.parametrize(
        "e, target, score",
        [
            (generate(GeneratorSpec("impartial-culture", 7, 60, 1)).election, 2, 17),
            (generate(GeneratorSpec("euclidean-1d", 6, 100, 1)).election, 3, 45),
            (MULTIPLICITY_PROFILE, 5, 33),
        ],
        ids=["ic-m7-n60", "euclidean-m6-n100", "multiplicity-m6-n20"],
    )
    def test_finishes_fast(self, e, target, score):
        start = time.perf_counter()
        solution = dodgson_score(e, target)
        assert time.perf_counter() - start < 5
        assert solution.score == score
        check_solution(e, target, solution)
