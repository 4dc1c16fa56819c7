import random
import time
from array import array
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from comsoc.elections import (
    Election,
    PreferenceOrder,
    condorcet_winner,
    kendall_tau,
    majority_matrix,
    sum_kendall_tau,
)
from comsoc.errors import CapacityError
from comsoc.generators import GeneratorSpec, generate
from comsoc.kemeny import (
    _insertion_order,
    _order_component,
    _score,
    _subset_table,
    avg_pairwise_distance,
    kemeny_brute_force,
    kemeny_decision,
    kemeny_dp,
)

from conftest import elections, random_election, seeded_elections


def plain_subset_dp(e):
    """Reference O(2^m * m^2) subset DP that sums every column directly.

    ``best[S]`` is the cheapest order of ``S`` as the final |S| positions;
    placing ``c`` first among ``S`` costs ``sum(wins[d][c] for d in S)``.
    Reconstruction takes the smallest ``c`` attaining the optimum.
    """
    m = e.m
    wins = majority_matrix(e).wins
    full = (1 << m) - 1
    infinity = 1 << 62
    best = array("q", [infinity]) * (full + 1)
    best[0] = 0

    def cost(s, c):
        return sum(wins[d][c] for d in range(m) if s >> d & 1 and d != c)

    for s in range(1, full + 1):
        best[s] = min(best[s ^ (1 << c)] + cost(s, c) for c in range(m) if s >> c & 1)
    ranking = []
    s = full
    while s:
        c = next(c for c in range(m) if s >> c & 1 and best[s ^ (1 << c)] + cost(s, c) == best[s])
        ranking.append(c)
        s ^= 1 << c
    return PreferenceOrder(ranking), best[full]


def dense_subset_dp(e):
    """The half-mask subset DP without bounds, over all m alternatives.

    ``best[S]`` is the cheapest way to order the alternatives in ``S`` as
    the final |S| positions, stored for every subset. Placing ``c`` first
    among ``S`` costs the column sum of ``wins[d][c]`` over ``d`` in ``S``.
    Each alternative has two half-mask tables of that sum, over the low
    ``h = m // 2`` alternatives and over the rest, so the cost is
    ``lo[S & low] + hi[S >> h]``. Reconstruction picks the smallest ``c``
    achieving the optimum at every step.
    """
    m = e.m
    wins = majority_matrix(e).wins
    h = m // 2
    low = (1 << h) - 1
    items = [
        (
            1 << c,
            _subset_table([wins[d][c] for d in range(h)], 0),
            _subset_table([wins[d][c] for d in range(h, m)], 0),
        )
        for c in range(m)
    ]
    low_members = _subset_table([(item,) for item in items[:h]], ())
    high_members = _subset_table([(item,) for item in items[h:]], ())

    infinity = 1 << 62
    best = array("q", [0]) * (1 << m)
    for hs, high in enumerate(high_members):
        base = hs << h
        for ls, lows in enumerate(low_members):
            s = base | ls
            b = infinity
            for part in (lows, high):
                for bit, lo, hi in part:
                    cand = best[s ^ bit] + lo[ls] + hi[hs]
                    if cand < b:
                        b = cand
            if s:
                best[s] = b

    order = []
    s = (1 << m) - 1
    while s:
        ls, hs = s & low, s >> h
        for c, (bit, lo, hi) in enumerate(items):
            if s & bit and best[s ^ bit] + lo[ls] + hi[hs] == best[s]:
                order.append(c)
                s ^= bit
                break
    return PreferenceOrder(order), best[(1 << m) - 1]


def pairwise_lower_bound(wins):
    m = len(wins)
    return sum(min(wins[a][b], wins[b][a]) for a, b in combinations(range(m), 2))


def assert_kemeny_certificate(e, ranking, score):
    """The score recounts, reaches the pairwise lower bound or more, and no
    move of a single alternative lowers it."""
    wins = majority_matrix(e).wins
    assert sorted(ranking) == list(range(e.m))
    assert sum_kendall_tau(e, ranking) == score
    assert score >= pairwise_lower_bound(wins)
    for i, x in enumerate(ranking):
        delta = 0
        for y in ranking[i + 1 :]:  # move x below y
            delta += wins[x][y] - wins[y][x]
            assert delta >= 0, f"moving {x} below {y} lowers the score"
        delta = 0
        for y in reversed(ranking[:i]):  # move x above y
            delta += wins[y][x] - wins[x][y]
            assert delta >= 0, f"moving {x} above {y} lowers the score"


def plain_pairwise_distance(e):
    """The O(n^2) ``avg_pairwise_distance``: Kendall tau over every voter pair."""
    n = e.n
    if n < 2:
        return 0
    total = sum(kendall_tau(v, w) for v, w in combinations(e.voters, 2))
    pairs = n * (n - 1) // 2
    return -(-total // pairs)


class TestBruteForce:
    def test_doc_election_golden(self, election_4x3):
        result = kemeny_brute_force(election_4x3)
        assert result.ranking.ranking == (0, 1, 2, 3)
        assert result.score == 4

    def test_single_voter(self):
        e = Election([(2, 0, 1)])
        result = kemeny_brute_force(e)
        assert result.ranking.ranking == (2, 0, 1)
        assert result.score == 0

    def test_two_identical_voters(self):
        e = Election([(1, 0, 2), (1, 0, 2)])
        result = kemeny_brute_force(e)
        assert result.ranking.ranking == (1, 0, 2)
        assert result.score == 0

    def test_capacity_limit(self):
        e = Election([tuple(range(9))])
        with pytest.raises(CapacityError):
            kemeny_brute_force(e)


class TestDp:
    def test_doc_election_golden(self, election_4x3):
        result = kemeny_dp(election_4x3)
        assert result.ranking.ranking == (0, 1, 2, 3)
        assert result.score == 4

    def test_unanimous_election(self):
        e = Election([(3, 1, 2, 0)] * 4)
        result = kemeny_dp(e)
        assert result.ranking.ranking == (3, 1, 2, 0)
        assert result.score == 0

    def test_capacity_limit(self):
        e = Election([tuple(range(25))])
        with pytest.raises(CapacityError):
            kemeny_dp(e)

    def test_matches_brute_force_bit_identically(self):
        for seed, e in seeded_elections(52000, 120, max_m=6, max_n=8):
            dp = kemeny_dp(e)
            bf = kemeny_brute_force(e)
            assert dp.score == bf.score, f"seed {seed}"
            assert dp.ranking == bf.ranking, f"seed {seed}"

    def test_reported_score_matches_recomputation(self):
        for seed, e in seeded_elections(52300, 40, max_m=6, max_n=8):
            result = kemeny_dp(e)
            assert result.score == sum_kendall_tau(e, result.ranking), f"seed {seed}"

    def test_score_invariant_under_relabeling_and_voter_shuffle(self):
        rng = random.Random(4242)
        for seed, e in seeded_elections(52500, 30, max_m=6, max_n=7):
            relabel = list(range(e.m))
            rng.shuffle(relabel)
            voters = [tuple(relabel[a] for a in v.ranking) for v in e.voters]
            rng.shuffle(voters)
            e2 = Election(voters)
            assert kemeny_dp(e).score == kemeny_dp(e2).score, f"seed {seed}"

    @pytest.mark.parametrize("model", ["impartial-culture", "single-peaked", "euclidean-1d"])
    def test_matches_plain_subset_dp(self, model):
        for seed in range(12):
            rng = random.Random(f"{model}:{seed}")
            m, n = 7 + seed % 6, rng.randint(3, 51)
            e = generate(GeneratorSpec(model, m, n, seed)).election
            result = kemeny_dp(e)
            assert (result.ranking, result.score) == plain_subset_dp(e), f"seed {seed}"

    def test_matches_plain_subset_dp_with_majority_ties(self):
        tied = 0
        for seed in range(54000, 54030):
            rng = random.Random(seed)
            e = random_election(rng, rng.randint(7, 10), rng.choice((2, 4, 6)))
            wins = majority_matrix(e).wins
            tied += any(wins[a][b] == wins[b][a] for a, b in combinations(range(e.m), 2))
            result = kemeny_dp(e)
            assert (result.ranking, result.score) == plain_subset_dp(e), f"seed {seed}"
        assert tied > 20

    def test_tied_pairs_chain_one_component_beside_singletons(self):
        # 4~1 and 1~3 tie, 4 beats 3 strictly: one component {1, 3, 4};
        # 2 tops every voter and 5, 0 close every voter.
        middles = [(4, 1, 3), (4, 3, 1), (1, 4, 3), (3, 1, 4)]
        e = Election([(2, *mid, 5, 0) for mid in middles])
        wins = majority_matrix(e).wins
        assert wins[4][1] == wins[1][4] and wins[1][3] == wins[3][1]
        assert wins[4][3] > wins[3][4]
        result = kemeny_dp(e)
        assert (result.ranking, result.score) == plain_subset_dp(e)
        assert result.ranking.ranking[0] == 2 and result.ranking.ranking[4:] == (5, 0)

    @pytest.mark.parametrize("model", ["single-peaked", "euclidean-1d"])
    def test_structured_profile_at_capacity_limit(self, model):
        # Odd n single-peaked profiles have a transitive strict majority, so
        # every component is a singleton and the DP never runs.
        m = 24
        e = generate(GeneratorSpec(model, m, 51, 7)).election
        wins = majority_matrix(e).wins
        majority_order = sorted(range(m), key=lambda a: -sum(wins[a][b] > wins[b][a] for b in range(m)))
        assert all(wins[a][b] > wins[b][a] for a, b in combinations(majority_order, 2))
        result = kemeny_dp(e)
        assert result.ranking.ranking == tuple(majority_order)
        assert result.score == sum(min(wins[a][b], wins[b][a]) for a, b in combinations(range(m), 2))

    def test_impartial_culture_at_capacity_limit(self):
        # One majority component of nearly all 24 alternatives; the bounds
        # leave the DP a small share of its 2^24 subsets.
        e = generate(GeneratorSpec("impartial-culture", 24, 51, 7)).election
        start = time.perf_counter()
        result = kemeny_dp(e)
        assert time.perf_counter() - start < 5
        assert_kemeny_certificate(e, result.ranking.ranking, result.score)

    def test_matches_dense_subset_dp_on_impartial_culture(self):
        for m in range(8, 16):
            e = generate(GeneratorSpec("impartial-culture", m, 51, m)).election
            result = kemeny_dp(e)
            assert (result.ranking, result.score) == dense_subset_dp(e), f"m={m}"

    @pytest.mark.parametrize("model", ["single-peaked", "euclidean-1d"])
    def test_matches_dense_subset_dp_on_structured_profiles(self, model):
        for seed in range(12):
            rng = random.Random(f"dense:{model}:{seed}")
            m, n = rng.randint(6, 14), rng.choice((2, 4, 10, 51))
            e = generate(GeneratorSpec(model, m, n, seed)).election
            result = kemeny_dp(e)
            assert (result.ranking, result.score) == dense_subset_dp(e), f"seed {seed}"

    def test_matches_dense_subset_dp_with_majority_ties(self):
        for seed in range(55000, 55030):
            rng = random.Random(seed)
            e = random_election(rng, rng.randint(8, 12), rng.choice((2, 4, 6)))
            result = kemeny_dp(e)
            assert (result.ranking, result.score) == dense_subset_dp(e), f"seed {seed}"

    def test_matches_dense_subset_dp_when_nothing_is_pruned(self):
        # Two reversed voters tie on every pair: every ranking scores the
        # pairwise lower bound, which the DP would not prune at all.
        m = 14
        e = Election([tuple(range(m)), tuple(reversed(range(m)))])
        result = kemeny_dp(e)
        assert (result.ranking, result.score) == dense_subset_dp(e)
        assert result.ranking.ranking == tuple(range(m))
        assert result.score == m * (m - 1) // 2

    def test_tied_components_match_dense_subset_dp(self):
        # Few voters tie many pairs, and the bounds on the whole set
        # usually meet; then the order is built without the DP.
        tied = 0
        for seed in range(400):
            rng = random.Random(f"tied:{seed}")
            e = random_election(rng, rng.randint(2, 9), rng.choice((2, 4, 6)))
            wins = majority_matrix(e).wins
            members = list(range(e.m))
            ranking, score = dense_subset_dp(e)
            result = kemeny_dp(e)
            assert (result.ranking, result.score) == (ranking, score), f"seed {seed}"
            if pairwise_lower_bound(wins) == _score(wins, _insertion_order(wins, members)):
                tied += 1
                assert _order_component(wins, members) == list(ranking), f"seed {seed}"
        assert tied >= 300

    def test_tied_component_at_capacity_limit(self):
        # Two reversed voters at m = 24: one fully tied component, whose
        # 2^24 subsets the DP would all store.
        m = 24
        e = Election([tuple(range(m)), tuple(reversed(range(m)))])
        start = time.perf_counter()
        result = kemeny_dp(e)
        assert time.perf_counter() - start < 1
        assert result.ranking == tuple(range(m))
        assert result.score == m * (m - 1) // 2

    @settings(max_examples=60, deadline=None)
    @given(elections(max_m=10, max_n=6))
    def test_matches_dense_subset_dp_property(self, e):
        result = kemeny_dp(e)
        assert (result.ranking, result.score) == dense_subset_dp(e)

    @pytest.mark.parametrize("model", ["impartial-culture", "single-peaked", "euclidean-1d"])
    def test_bounds_enclose_the_optimum(self, model):
        for seed in range(20):
            rng = random.Random(f"bounds:{model}:{seed}")
            m, n = rng.randint(2, 12), rng.choice((1, 2, 3, 4, 6, 10, 51))
            e = generate(GeneratorSpec(model, m, n, seed)).election
            wins = majority_matrix(e).wins
            order = _insertion_order(wins, list(range(m)))
            ub = _score(wins, order)
            assert ub == sum_kendall_tau(e, order), f"seed {seed}"
            assert_kemeny_certificate(e, order, ub)
            assert pairwise_lower_bound(wins) <= kemeny_dp(e).score <= ub, f"seed {seed}"

    @settings(max_examples=60, deadline=None)
    @given(elections(max_m=7, max_n=8))
    def test_matches_brute_force_property(self, e):
        dp = kemeny_dp(e)
        bf = kemeny_brute_force(e)
        assert (dp.ranking, dp.score) == (bf.ranking, bf.score)


class TestDecision:
    def test_doc_election_threshold(self, election_4x3):
        assert kemeny_decision(election_4x3, 4)
        assert not kemeny_decision(election_4x3, 3)

    def test_trivial_upper_bound(self):
        rng = random.Random(9)
        e = random_election(rng, 5, 4)
        assert kemeny_decision(e, e.n * e.m * (e.m - 1) // 2)

    def test_unanimous_at_zero(self):
        assert kemeny_decision(Election([(0, 1, 2)] * 3), 0)

    def test_negative_budget(self, election_4x3):
        assert not kemeny_decision(election_4x3, -1)


class TestAvgPairwiseDistance:
    def test_unanimous_is_zero(self):
        assert avg_pairwise_distance(Election([(0, 1, 2)] * 4)) == 0

    def test_reversed_pair(self):
        assert avg_pairwise_distance(Election([(0, 1, 2, 3), (3, 2, 1, 0)])) == 6

    def test_doc_election(self, election_4x3):
        # Pairwise distances are 1, 3, 4; ceil(8/3) = 3.
        assert avg_pairwise_distance(election_4x3) == 3

    def test_single_voter_convention(self):
        assert avg_pairwise_distance(Election([(1, 0)])) == 0

    @pytest.mark.parametrize("model", ["impartial-culture", "single-peaked", "euclidean-1d"])
    def test_matches_plain_pairwise_distance(self, model):
        sizes = [(1, 1), (1, 5), (4, 1), (4, 2), (5, 2)]
        rng = random.Random(model)
        sizes += [(rng.randint(1, 12), rng.randint(1, 60)) for _ in range(30)]
        for seed, (m, n) in enumerate(sizes):
            e = generate(GeneratorSpec(model, m, n, seed)).election
            assert avg_pairwise_distance(e) == plain_pairwise_distance(e), f"seed {seed}"

    @settings(max_examples=80, deadline=None)
    @given(elections(max_m=8, max_n=12))
    def test_matches_plain_pairwise_distance_property(self, e):
        assert avg_pairwise_distance(e) == plain_pairwise_distance(e)


def test_condorcet_winner_tops_every_optimal_ranking():
    # Full enumeration of all optimal rankings, small scale.
    checked = 0
    for seed, e in seeded_elections(53000, 150, max_m=6, max_n=7):
        winner = condorcet_winner(e)
        if winner is None:
            continue
        best = kemeny_brute_force(e).score
        for candidate in permutations(range(e.m)):
            if sum_kendall_tau(e, candidate) == best:
                assert candidate[0] == winner, f"seed {seed}"
        checked += 1
    assert checked > 10
