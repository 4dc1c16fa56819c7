import random

import pytest

from comsoc.dodgson import (
    DodgsonSolution,
    build_program,
    dodgson_bruteforce,
    dodgson_decision,
    dodgson_score,
    group_types,
)
from comsoc.elections import Election, condorcet_winner
from comsoc.errors import CapacityError

from conftest import seeded_elections


def check_solution(e, c, solution: DodgsonSolution):
    """Re-validate a witness against the program invariants."""
    program = build_program(e, c)
    assert len(solution.lifts) == len(program.types)
    score = 0
    gained = [0] * e.m
    for i, t in enumerate(program.types):
        counts = solution.lifts[i]
        assert len(counts) == program.max_lift(i) + 1
        assert all(x >= 0 for x in counts)
        assert sum(counts) == t.multiplicity
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

    def test_types_group_equal_orders(self):
        e = Election([(0, 1), (1, 0), (0, 1)])
        types = group_types(e)
        assert [(t.order.ranking, t.multiplicity) for t in types] == [
            ((0, 1), 2),
            ((1, 0), 1),
        ]
        assert sum(t.multiplicity for t in types) == e.n

    def test_gain_monotone_in_lift(self):
        for seed, e in seeded_elections(61000, 25, max_m=5, max_n=5):
            for c in range(e.m):
                program = build_program(e, c)
                for i, t in enumerate(program.types):
                    # A lift by j passes passed[i][:j]: the alternatives
                    # above c, nearest first, so gains grow with the lift.
                    above = t.order.ranking[: t.order.rank_of(c) - 1]
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
                assert dodgson_bruteforce(e, c, min(score, 8), max_k=8) == (
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
