import pickle
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comsoc.dodgson import dodgson_score
from comsoc.elections import (
    Election,
    MajorityMatrix,
    PreferenceOrder,
    ScoringVector,
    condorcet_winner,
    is_winner,
    kendall_tau,
    majority_matrix,
    scoring_winners,
)
from comsoc.fileio import parse_preflib_soc
from comsoc.generators import MODELS, GeneratorSpec, generate
from comsoc.kemeny import avg_pairwise_distance, kemeny_dp

from conftest import elections, multiplicity_heavy, random_election


def plain_majority_matrix(e):
    """The former per-voter tally, kept as the oracle for the typed one."""
    m = e.m
    wins = [[0] * m for _ in range(m)]
    for v in e.voters:
        r = v.ranking
        for i in range(m):
            above = r[i]
            for j in range(i + 1, m):
                wins[above][r[j]] += 1
    return MajorityMatrix(tuple(tuple(row) for row in wins), e.n)


class TestPreferenceOrder:
    def test_rank_of_is_inverse(self):
        order = PreferenceOrder((2, 0, 3, 1))
        for pos, alt in enumerate(order):
            assert order.rank_of(alt) == pos + 1

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            PreferenceOrder((0, 0, 1, 2))
        with pytest.raises(ValueError):
            PreferenceOrder((1, 2, 3))

    def test_immutable(self):
        order = PreferenceOrder((0, 1))
        with pytest.raises(AttributeError):
            order.ranking = (1, 0)

    def test_prefers_on_a_fresh_order(self):
        ranking = (3, 0, 4, 1, 2)
        for a in range(5):
            for b in range(5):
                order = PreferenceOrder(ranking)
                assert order.prefers(a, b) == (ranking.index(a) < ranking.index(b))

    def test_equality_and_hash_ignore_the_rank_table(self):
        built = PreferenceOrder((2, 0, 1))
        built.rank_of(0)
        fresh = PreferenceOrder((2, 0, 1))
        assert built == fresh and fresh == built
        assert hash(built) == hash(fresh)
        assert len({built, fresh}) == 1
        assert built != PreferenceOrder((0, 2, 1))

    def test_immutable_after_rank_table_is_built(self):
        order = PreferenceOrder((1, 0, 2))
        assert order.rank_of(1) == 1
        with pytest.raises(AttributeError):
            order.ranking = (0, 1, 2)
        with pytest.raises(AttributeError):
            order._ranks = (1, 2, 3)
        assert order.ranking == (1, 0, 2) and order.rank_of(2) == 3

    def test_rejection_names_the_ranking(self):
        with pytest.raises(ValueError, match=r"^ranking \(0, 0, 1, 2\) is not a permutation of 0\.\.3$"):
            PreferenceOrder([0, 0, 1, 2])

    def test_equals_hashes_and_sorts_as_its_plain_tuple(self):
        order = PreferenceOrder((2, 0, 1))
        assert order == (2, 0, 1) and (2, 0, 1) == order
        assert hash(order) == hash((2, 0, 1))
        assert {(2, 0, 1): "found"}[order] == "found"
        assert order != (0, 2, 1)
        orders = [PreferenceOrder(t) for t in ((1, 0, 2), (0, 2, 1), (0, 1, 2))]
        assert sorted(orders) == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]

    def test_ranking_is_the_order(self):
        order = PreferenceOrder((1, 2, 0))
        assert order.ranking is order

    def test_pickle_round_trip(self):
        order = PreferenceOrder((3, 1, 0, 2))
        copy = pickle.loads(pickle.dumps(order))
        assert type(copy) is PreferenceOrder and copy == order

    def test_rank_of_and_prefers_match_tuple_index(self):
        for m in range(1, 6):
            for ranking in permutations(range(m)):
                order = PreferenceOrder(ranking)
                for a in range(m):
                    assert order.rank_of(a) == ranking.index(a) + 1
                    for b in range(m):
                        assert order.prefers(a, b) == (ranking.index(a) < ranking.index(b))


class TestElection:
    def test_needs_a_voter(self):
        with pytest.raises(ValueError):
            Election([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            Election([(0, 1), (0, 1, 2)])

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            Election([(0, 1)], labels=("x",))
        with pytest.raises(ValueError):
            Election([(0, 1)], labels=("x", "x"))
        e = Election([(0, 1)], labels=("left", "right"))
        assert e.label_of(1) == "right"

    def test_types_group_equal_orders(self):
        e = Election([(0, 1), (1, 0), (0, 1)])
        types = e.types()
        assert [(order.ranking, count) for order, count in types] == [
            ((0, 1), 2),
            ((1, 0), 1),
        ]
        assert sum(count for _, count in types) == e.n

    def test_types_in_order_of_first_appearance(self):
        e = Election([(2, 0, 1), (0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 1, 2), (0, 1, 2)])
        types = e.types()
        assert [order.ranking for order, _ in types] == [(2, 0, 1), (0, 1, 2), (1, 2, 0)]
        assert [count for _, count in types] == [2, 3, 1]
        assert types[0][0] is e.voters[0] and types[1][0] is e.voters[1]

    def test_types_group_distinct_equal_objects(self):
        e = Election([PreferenceOrder((1, 0, 2)) for _ in range(4)] + [PreferenceOrder((0, 1, 2))])
        assert e.voters[0] is not e.voters[1]
        assert [(order.ranking, count) for order, count in e.types()] == [
            ((1, 0, 2), 4),
            ((0, 1, 2), 1),
        ]

    def test_hash_is_the_plain_tuple_hash(self):
        orders = [(2, 0, 1), (0, 1, 2), (2, 0, 1)]
        for labels in (None, ("x", "y", "z")):
            e = Election(orders, labels=labels)
            assert hash(e) == hash((tuple(orders), labels))

    def test_type_counts_sum_to_n(self):
        for k in range(40):
            rng = random.Random(71000 + k)
            e = multiplicity_heavy(rng, rng.randint(1, 6), 5, 9)
            types = e.types()
            assert sum(count for _, count in types) == e.n
            assert len({order for order, _ in types}) == len(types) == len(set(e.voters))


class TestMajorityMatrix:
    def test_matches_plain_majority_matrix(self):
        for k in range(90):
            rng = random.Random(72000 + k)
            m, n = rng.randint(1, 8), rng.randint(1, 40)
            e = generate(GeneratorSpec(MODELS[k % 3], m, n, 72000 + k)).election
            assert majority_matrix(e) == plain_majority_matrix(e), f"seed {72000 + k}"

    def test_matches_plain_majority_matrix_with_multiplicities(self):
        for k in range(60):
            rng = random.Random(73000 + k)
            e = multiplicity_heavy(rng, rng.randint(1, 7), 4, 30)
            assert majority_matrix(e) == plain_majority_matrix(e), f"seed {73000 + k}"

    @settings(max_examples=60, deadline=None)
    @given(elections())
    def test_typed_tally_property(self, e):
        assert majority_matrix(e) == plain_majority_matrix(e)

    def test_tallied_once_per_election(self, election_4x3):
        e = Election(election_4x3.voters)
        assert majority_matrix(e) is majority_matrix(e)
        assert condorcet_winner(e) == 0 and majority_matrix(e) is majority_matrix(e)

    def test_equality_and_hash_ignore_the_cached_tally(self):
        tallied = Election([(0, 1, 2), (2, 1, 0), (0, 1, 2)])
        majority_matrix(tallied)
        fresh = Election([(0, 1, 2), (2, 1, 0), (0, 1, 2)])
        assert tallied == fresh and fresh == tallied
        assert hash(tallied) == hash(fresh)
        assert len({tallied, fresh}) == 1
        assert tallied != Election([(0, 1, 2), (2, 1, 0)])

    def test_immutable_after_tally_is_cached(self):
        e = Election([(1, 0), (0, 1), (1, 0)])
        wins = majority_matrix(e)
        with pytest.raises(AttributeError):
            e.voters = ()
        with pytest.raises(AttributeError):
            e._majority = None
        assert majority_matrix(e) is wins and wins[1][0] == 2

    def test_doc_election_tallies(self, election_4x3):
        wins = majority_matrix(election_4x3)
        assert wins[0][1] == 2
        assert wins[1][0] == 1
        assert wins[0][3] == 3
        assert wins[3][0] == 0

    def test_single_voter(self):
        e = Election([(2, 0, 1)])
        wins = majority_matrix(e)
        for a, b in combinations(range(3), 2):
            assert {wins[a][b], wins[b][a]} == {0, 1}
            above = a if e.voters[0].prefers(a, b) else b
            assert wins[above][a + b - above] == 1

    def test_two_reversed_voters_tie_everywhere(self):
        e = Election([(0, 1, 2, 3), (3, 2, 1, 0)])
        wins = majority_matrix(e)
        for a, b in combinations(range(4), 2):
            assert wins[a][b] == 1 and wins[b][a] == 1

    @settings(max_examples=60, deadline=None)
    @given(elections())
    def test_complementarity_and_diagonal(self, e):
        wins = majority_matrix(e)
        for a in range(e.m):
            assert wins[a][a] == 0
            for b in range(e.m):
                if a != b:
                    assert wins[a][b] + wins[b][a] == e.n

    @settings(max_examples=40, deadline=None)
    @given(elections(), st.randoms(use_true_random=False))
    def test_voter_permutation_invariance(self, e, rnd):
        shuffled = list(e.voters)
        rnd.shuffle(shuffled)
        e2 = Election(shuffled)
        assert majority_matrix(e) == majority_matrix(e2)
        assert condorcet_winner(e) == condorcet_winner(e2)
        assert scoring_winners(e, ScoringVector.borda(e.m)) == scoring_winners(
            e2, ScoringVector.borda(e2.m)
        )


class TestCondorcet:
    def test_doc_election_winner(self, election_4x3):
        assert condorcet_winner(election_4x3) == 0

    def test_opposite_pair_has_none(self):
        assert condorcet_winner(Election([(0, 1, 2), (2, 1, 0)])) is None

    def test_single_voter_top_choice(self):
        assert condorcet_winner(Election([(3, 1, 0, 2)])) == 3

    @settings(max_examples=60, deadline=None)
    @given(elections())
    def test_winner_has_strict_majorities(self, e):
        c = condorcet_winner(e)
        if c is not None:
            wins = majority_matrix(e)
            for d in range(e.m):
                if d != c:
                    assert 2 * wins[c][d] > e.n


class TestScoring:
    def test_vector_validation(self):
        with pytest.raises(ValueError):
            ScoringVector((1, 2))
        with pytest.raises(ValueError):
            ScoringVector((1, -1))
        with pytest.raises(ValueError):
            ScoringVector(())

    def test_length_mismatch_rejected(self, election_4x3):
        with pytest.raises(ValueError):
            scoring_winners(election_4x3, ScoringVector((1, 0)))

    def test_doc_election_plurality(self, election_4x3):
        result = scoring_winners(election_4x3, ScoringVector.plurality(4))
        assert result.winners == (0,)
        assert result.scores == (2, 0, 1, 0)

    def test_doc_election_borda(self, election_4x3):
        result = scoring_winners(election_4x3, ScoringVector.borda(4))
        assert result.scores == (7, 6, 4, 1)
        assert result.winners == (0,)

    def test_all_zero_vector_ties_everyone(self, election_4x3):
        result = scoring_winners(election_4x3, ScoringVector((0, 0, 0, 0)))
        assert result.winners == (0, 1, 2, 3)

    def test_unique_winner_mode(self):
        e = Election([(0, 1), (1, 0)])
        vec = ScoringVector.plurality(2)
        assert is_winner(e, vec, 0)
        assert is_winner(e, vec, 1)
        assert not is_winner(e, vec, 0, unique=True)

    def test_is_winner_rejects_unknown_alternative(self, election_4x3):
        for p in (-1, 4):
            with pytest.raises(ValueError):
                is_winner(election_4x3, ScoringVector.plurality(4), p)

    @settings(max_examples=100, deadline=None)
    @given(elections(), st.data())
    def test_tally_and_winner_match_naive(self, e, data):
        # Nonincreasing vectors with zero tails: d-approval, all-zero,
        # (2, 1, 0, 0)-style and Borda-like prefixes.
        depth = data.draw(st.integers(0, e.m))
        head = sorted(data.draw(st.lists(st.integers(1, 4), min_size=depth, max_size=depth)))
        vector = ScoringVector(tuple(reversed(head)) + (0,) * (e.m - depth))
        naive = [0] * e.m
        for v in e.voters:
            for pos in range(e.m):
                naive[v.ranking[pos]] += vector.alpha[pos]
        assert scoring_winners(e, vector).scores == tuple(naive)
        for p in range(e.m):
            rivals = [naive[c] for c in range(e.m) if c != p]
            assert is_winner(e, vector, p) == all(naive[p] >= s for s in rivals)
            assert is_winner(e, vector, p, unique=True) == all(naive[p] > s for s in rivals)

    def test_typed_scores_match_per_voter_tally(self):
        # A per-voter tally is the oracle for the tally over types.
        for k in range(80):
            rng = random.Random(74000 + k)
            m = rng.randint(1, 7)
            e = multiplicity_heavy(rng, m, 4, 30)
            depth = rng.randint(0, m)
            head = sorted(rng.randint(1, 4) for _ in range(depth))
            vector = ScoringVector(tuple(reversed(head)) + (0,) * (m - depth))
            result = scoring_winners(e, vector)
            scores = [0] * m
            for v in e.voters:
                for pos, alt in enumerate(v):
                    scores[alt] += vector.alpha[pos]
            assert result.scores == tuple(scores), f"seed {74000 + k}"
            assert result.winners == tuple(c for c in range(m) if scores[c] == max(scores))

    @settings(max_examples=60, deadline=None)
    @given(elections())
    def test_borda_equals_majority_row_sums(self, e):
        wins = majority_matrix(e)
        result = scoring_winners(e, ScoringVector.borda(e.m))
        for c in range(e.m):
            assert result.scores[c] == sum(wins[c])


class TestKendallTau:
    def test_identical_orders(self):
        assert kendall_tau((0, 1, 2, 3), (0, 1, 2, 3)) == 0

    def test_reversal_is_maximal(self):
        assert kendall_tau((0, 1, 2, 3), (3, 2, 1, 0)) == 6

    def test_doc_election_v1_v3(self, election_4x3):
        assert kendall_tau(election_4x3.voters[0], election_4x3.voters[2]) == 3

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau((0, 1), (0, 1, 2))

    def test_equals_discordant_pair_count(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(2, 7)
            p = PreferenceOrder(rng.sample(range(m), m))
            q = PreferenceOrder(rng.sample(range(m), m))
            direct = sum(
                1
                for a, b in combinations(range(m), 2)
                if p.prefers(a, b) != q.prefers(a, b)
            )
            assert kendall_tau(p, q) == direct

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_metric_properties(self, m, data):
        p = PreferenceOrder(data.draw(st.permutations(range(m))))
        q = PreferenceOrder(data.draw(st.permutations(range(m))))
        r = PreferenceOrder(data.draw(st.permutations(range(m))))
        assert kendall_tau(p, q) == kendall_tau(q, p)
        assert (kendall_tau(p, q) == 0) == (p == q)
        assert kendall_tau(p, r) <= kendall_tau(p, q) + kendall_tau(q, r)


def test_random_election_helper_is_deterministic():
    a = random_election(random.Random(11), 5, 4)
    b = random_election(random.Random(11), 5, 4)
    assert a == b


def test_preflib_scale_runs_over_types():
    # 10^6 voters, 3 distinct orders: the tally, Kemeny, d_a and Dodgson
    # must cost O(types) after one O(n) grouping pass, not O(n) each.
    text = (
        "# NUMBER ALTERNATIVES: 6\n"
        "400000: 1,2,3,4,5,6\n"
        "350000: 2,3,1,6,5,4\n"
        "250000: 6,5,4,3,2,1\n"
    )
    start = time.perf_counter()
    e = parse_preflib_soc(text)
    result = kemeny_dp(e)
    assert result.score == 4_500_000
    assert result.ranking.ranking == (1, 2, 0, 5, 4, 3)
    assert avg_pairwise_distance(e) == 7
    assert dodgson_score(e, 1).score == 0
    assert time.perf_counter() - start < 3
