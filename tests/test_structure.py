import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comsoc.elections import Election, PreferenceOrder
from comsoc.errors import CapacityError
from comsoc.generators import MODELS, GeneratorSpec, generate
from comsoc.structure import (
    EuclideanEmbedding,
    all_single_peaked_axes,
    find_single_peaked_axis,
    group_separable_split,
    is_single_peaked_wrt,
    peak_count,
    single_crossing_report,
    sp_deletion_distance,
    verify_euclidean,
)

from conftest import multiplicity_heavy, random_election

# The complete axis set for the five-alternative doc election: the two
# documented axes and their reverses, nothing else (exhaustive over 120).
SP_5X3_VALID_AXES = {
    (0, 1, 2, 3, 4),
    (3, 2, 1, 0, 4),
    (4, 0, 1, 2, 3),
    (4, 3, 2, 1, 0),
}


def subset_voter_deletion(e):
    """Oracle: voter subsets by size, then lexicographically, until the
    remaining voters are single-peaked on some axis."""
    for size in range(e.n):
        for drop in combinations(range(e.n), size):
            keep = [v for i, v in enumerate(e.voters) if i not in drop]
            if find_single_peaked_axis(Election(keep)) is not None:
                return size, drop
    raise AssertionError("a single voter is single-peaked along its own order")


def per_voter_axes(e):
    """Oracle: every axis on which ``peak_count`` is 1 for each voter, one
    voter at a time."""
    return [
        axis
        for axis in permutations(range(e.m))
        if all(peak_count(v, axis) == 1 for v in e.voters)
    ]


def per_voter_deletion(e):
    """Oracle: the one-pass voter deletion that tests every voter on every
    axis with ``peak_count``."""
    best = (e.n + 1, ())
    for axis in permutations(range(e.m)):
        drop = tuple(i for i, v in enumerate(e.voters) if peak_count(v, axis) != 1)
        best = min(best, (len(drop), drop))
    return best


def subset_group_split(e):
    """Oracle: the nonempty proper subsets as sorted tuples, walked
    depth-first (lexicographically), until one is a top or bottom segment of
    every voter's order."""
    prefixes = [[frozenset(v.ranking[:s]) for s in range(e.m + 1)] for v in e.voters]
    suffixes = [[frozenset(v.ranking[e.m - s :]) for s in range(e.m + 1)] for v in e.voters]

    def walk(prefix, start):
        for i in range(start, e.m):
            sub = prefix + (i,)
            if len(sub) < e.m:
                yield sub
                yield from walk(sub, i + 1)

    for sub in walk((), 0):
        group, s = frozenset(sub), len(sub)
        if all(prefixes[vi][s] == group or suffixes[vi][s] == group for vi in range(e.n)):
            return sub, tuple(c for c in range(e.m) if c not in group)
    return None


def rebuilt_alternative_deletion(e):
    """Oracle: alternative drop sets by size, then lexicographically, each
    relabelled into a fresh election until one has a single-peaked axis."""
    for size in range(e.m):
        for drop in combinations(range(e.m), size):
            keep = [c for c in range(e.m) if c not in drop]
            relabel = {c: i for i, c in enumerate(keep)}
            reduced = Election([[relabel[c] for c in v.ranking if c in relabel] for v in e.voters])
            if find_single_peaked_axis(reduced) is not None:
                return size, drop
    raise AssertionError("one or two alternatives are always single-peaked")


def recursive_split_profile(rng, m, n):
    """Group-separable by construction: one random binary tree of groups
    over shuffled alternatives; each voter orders the two children of every
    node either way round."""
    alts = rng.sample(range(m), m)

    def tree(group):
        if len(group) == 1:
            return group[0]
        k = rng.randint(1, len(group) - 1)
        return tree(group[:k]), tree(group[k:])

    def order(node):
        if isinstance(node, int):
            return [node]
        left, right = order(node[0]), order(node[1])
        return left + right if rng.random() < 0.5 else right + left

    root = tree(alts)
    return Election([order(root) for _ in range(n)])


def model_profiles(base_seed, count, max_m, max_n):
    """Seeded impartial-culture, single-peaked and Euclidean profiles with
    m from 1 to ``max_m``."""
    for k in range(count):
        seed = base_seed + k
        rng = random.Random(seed)
        m, n = rng.randint(1, max_m), rng.randint(1, max_n)
        yield seed, generate(GeneratorSpec(MODELS[k % 3], m, n, seed)).election


def typed_profiles(base_seed, count, max_m, max_n):
    """Seeded profiles of all three models, every third one rebuilt from a
    few orders with heavy multiplicities."""
    for k in range(count):
        seed = base_seed + k
        rng = random.Random(seed)
        m = rng.randint(1, max_m)
        if k % 3 == 2:
            yield seed, multiplicity_heavy(rng, m, 3, max(1, max_n // 3))
        else:
            yield seed, generate(GeneratorSpec(MODELS[k % 3], m, rng.randint(1, max_n), seed)).election


class TestPeakCount:
    def test_order_equal_to_axis_has_one_peak(self):
        assert peak_count((0, 1, 2, 3), (0, 1, 2, 3)) == 1

    def test_doc_voter_two(self, election_sp_5x3):
        assert peak_count(election_sp_5x3.voters[1], (0, 1, 2, 3, 4)) == 1

    def test_alternating_order_has_three_peaks(self):
        assert peak_count((0, 2, 4, 3, 1), (0, 1, 2, 3, 4)) == 3

    def test_mismatched_axis_rejected(self):
        with pytest.raises(ValueError):
            peak_count((0, 1, 2), (0, 1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_bounds_and_reversal_symmetry(self, m, data):
        order = PreferenceOrder(data.draw(st.permutations(range(m))))
        axis = tuple(data.draw(st.permutations(range(m))))
        peaks = peak_count(order, axis)
        assert 1 <= peaks <= (m + 1) // 2
        assert peaks == peak_count(order, tuple(reversed(axis)))


class TestSinglePeaked:
    def test_doc_election_both_axes_and_reverses(self, election_sp_5x3):
        for axis in SP_5X3_VALID_AXES:
            assert is_single_peaked_wrt(election_sp_5x3, axis)

    def test_doc_election_other_axis(self, election_sp_5x3):
        assert not is_single_peaked_wrt(election_sp_5x3, (0, 2, 1, 3, 4))

    def test_full_axis_set_matches_exhaustive_enumeration(self, election_sp_5x3):
        assert set(all_single_peaked_axes(election_sp_5x3)) == SP_5X3_VALID_AXES

    def test_find_axis_returns_lexicographic_first(self, election_sp_5x3):
        assert find_single_peaked_axis(election_sp_5x3) == (0, 1, 2, 3, 4)

    def test_single_voter_election_is_single_peaked(self):
        rng = random.Random(31)
        for _ in range(10):
            m = rng.randint(2, 6)
            order = tuple(rng.sample(range(m), m))
            e = Election([order])
            assert is_single_peaked_wrt(e, order)
            assert find_single_peaked_axis(e) is not None

    def test_all_six_orders_of_three_alternatives_has_no_axis(self):
        e = Election(list(permutations(range(3))))
        assert find_single_peaked_axis(e) is None

    def test_capacity_limit(self):
        e = Election([tuple(range(11))])
        with pytest.raises(CapacityError):
            find_single_peaked_axis(e)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_axis_reversal_symmetry(self, m, data):
        voters = [
            data.draw(st.permutations(range(m)))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        e = Election(voters)
        axis = tuple(data.draw(st.permutations(range(m))))
        assert is_single_peaked_wrt(e, axis) == is_single_peaked_wrt(
            e, tuple(reversed(axis))
        )

    def test_axes_match_per_voter_oracle(self):
        for seed, e in typed_profiles(77000, 60, 6, 30):
            axes = per_voter_axes(e)
            assert all_single_peaked_axes(e) == axes, f"seed {seed}"
            assert find_single_peaked_axis(e) == (axes[0] if axes else None), f"seed {seed}"
            rng = random.Random(seed)
            for _ in range(5):
                axis = tuple(rng.sample(range(e.m), e.m))
                assert is_single_peaked_wrt(e, axis) == (axis in axes), f"seed {seed}"


class TestSingleCrossing:
    def test_unanimous_counts_are_zero(self):
        e = Election([(0, 1, 2)] * 4)
        report = single_crossing_report(e)
        assert report.is_single_crossing
        assert report.max_crossings == 0
        assert set(report.crossings.values()) == {0}

    def test_two_voters_always_single_crossing(self):
        rng = random.Random(32)
        for _ in range(15):
            m = rng.randint(2, 6)
            e = random_election(rng, m, 2)
            assert single_crossing_report(e).is_single_crossing

    def test_doc_election_identity_order(self, election_4x3):
        # Direct scan: v1 and v3 rank pair (2, 3) one way, v2 the other,
        # giving two switches; every other pair switches at most once.
        report = single_crossing_report(election_4x3)
        assert report.crossings[(0, 1)] == 1
        assert report.crossings[(0, 2)] == 1
        assert report.crossings[(0, 3)] == 0
        assert report.crossings[(1, 2)] == 1
        assert report.crossings[(1, 3)] == 0
        assert report.crossings[(2, 3)] == 2
        assert not report.is_single_crossing
        assert report.max_crossings == 2

    def test_crossing_counts_bounded_by_n_minus_one(self):
        rng = random.Random(33)
        for _ in range(15):
            e = random_election(rng, rng.randint(2, 5), rng.randint(1, 7))
            report = single_crossing_report(e)
            assert report.max_crossings <= e.n - 1
            if report.is_single_crossing:
                assert report.max_crossings <= 1

    def test_explicit_voter_order(self):
        e = Election([(0, 1), (1, 0), (0, 1)])
        assert not single_crossing_report(e).is_single_crossing
        assert single_crossing_report(e, (0, 2, 1)).is_single_crossing
        with pytest.raises(ValueError):
            single_crossing_report(e, (0, 1))


class TestEuclidean:
    def test_two_alternatives_true_case(self):
        e = Election([(0, 1)])
        emb = EuclideanEmbedding(1, [(1,), (3,)], [(0,)])
        assert verify_euclidean(e, emb)

    def test_two_alternatives_false_case(self):
        e = Election([(0, 1)])
        emb = EuclideanEmbedding(1, [(3,), (1,)], [(0,)])
        assert not verify_euclidean(e, emb)

    def test_canonical_single_voter_embedding(self):
        rng = random.Random(34)
        for _ in range(10):
            m = rng.randint(2, 6)
            order = rng.sample(range(m), m)
            e = Election([order])
            positions = [None] * m
            for pos, alt in enumerate(order):
                positions[alt] = (Fraction(pos + 1),)
            emb = EuclideanEmbedding(1, positions, [(Fraction(0),)])
            assert verify_euclidean(e, emb)

    def test_distance_tie_rejected(self):
        e = Election([(0, 1)])
        emb = EuclideanEmbedding(1, [(1,), (-1,)], [(0,)])
        assert not verify_euclidean(e, emb)

    def test_missing_positions_rejected(self):
        e = Election([(0, 1, 2)])
        with pytest.raises(ValueError):
            verify_euclidean(e, EuclideanEmbedding(1, [(0,), (1,)], [(0,)]))

    def test_one_dimensional_implies_single_peaked_on_sorted_axis(self):
        rng = random.Random(35)
        for _ in range(20):
            m = rng.randint(2, 5)
            n = rng.randint(1, 4)
            alt_pos = rng.sample(range(0, 50), m)
            voter_pos = rng.sample(range(0, 50), n)
            voters = []
            for vp in voter_pos:
                order = sorted(range(m), key=lambda c: (abs(alt_pos[c] - vp), c))
                key_list = sorted(abs(alt_pos[c] - vp) for c in range(m))
                if len(set(key_list)) != m:
                    break
                voters.append(order)
            if len(voters) != n:
                continue
            e = Election(voters)
            emb = EuclideanEmbedding(
                1,
                [(Fraction(x),) for x in alt_pos],
                [(Fraction(x),) for x in voter_pos],
            )
            assert verify_euclidean(e, emb)
            axis = sorted(range(m), key=lambda c: alt_pos[c])
            assert is_single_peaked_wrt(e, axis)

    def test_dimension_two(self):
        e = Election([(0, 1)])
        emb = EuclideanEmbedding(2, [(0, 1), (2, 2)], [(0, 0)])
        assert verify_euclidean(e, emb)


class TestGroupSeparable:
    def test_unanimous_returns_first_valid_group(self):
        # Valid groups are the prefixes and suffixes of (2, 0, 1); the
        # lexicographically first among them is (0, 1), a suffix.
        e = Election([(2, 0, 1)] * 3)
        split = group_separable_split(e)
        assert split == ((0, 1), (2,))

    def test_block_structure_found(self):
        e = Election([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)])
        split = group_separable_split(e)
        assert split is not None
        a, b = split
        assert set(a) | set(b) == {0, 1, 2, 3}
        assert {frozenset(a), frozenset(b)} == {frozenset({0, 1}), frozenset({2, 3})}

    def test_interleaved_election_has_no_split(self):
        e = Election([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        assert group_separable_split(e) is None

    def test_wide_profiles_under_one_second(self):
        ic = generate(GeneratorSpec("impartial-culture", 40, 5, 1)).election
        mirror = Election([tuple(range(40)), tuple(reversed(range(40)))])
        for e, expected in [(ic, None), (mirror, ((0,), tuple(range(1, 40))))]:
            start = time.perf_counter()
            assert group_separable_split(e) == expected
            assert time.perf_counter() - start < 1

    def test_matches_subset_oracle(self):
        for seed, e in model_profiles(79000, 300, 9, 12):
            assert group_separable_split(e) == subset_group_split(e), f"seed {seed}"

    def test_matches_subset_oracle_on_recursive_splits(self):
        for k in range(200):
            rng = random.Random(80000 + k)
            e = recursive_split_profile(rng, rng.randint(1, 9), rng.randint(1, 12))
            split = group_separable_split(e)
            assert split == subset_group_split(e), f"seed {80000 + k}"
            assert (split is None) == (e.m == 1), f"seed {80000 + k}"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.randoms(use_true_random=False), st.data())
    def test_property_matches_oracles(self, m, n, rng, data):
        # A separable profile, then up to two arbitrary voters that may
        # break its groups.
        voters = list(recursive_split_profile(rng, m, n).voters)
        for _ in range(data.draw(st.integers(0, 2))):
            voters.append(data.draw(st.permutations(range(m))))
        e = Election(voters)
        assert group_separable_split(e) == subset_group_split(e)
        assert sp_deletion_distance(e, "alternatives") == rebuilt_alternative_deletion(e)


class TestDeletionDistance:
    def test_already_single_peaked_is_zero(self, election_sp_5x3):
        assert sp_deletion_distance(election_sp_5x3, "voters") == (0, ())
        assert sp_deletion_distance(election_sp_5x3, "alternatives") == (0, ())

    def test_adversarial_voter_costs_one(self, election_sp_5x3):
        spoiler = (0, 1, 3, 2, 4)
        e = Election(list(election_sp_5x3.voters) + [spoiler])
        assert find_single_peaked_axis(e) is None
        distance, witness = sp_deletion_distance(e, "voters")
        assert distance == 1
        keep = [v for i, v in enumerate(e.voters) if i not in witness]
        assert find_single_peaked_axis(Election(keep)) is not None

    def test_voter_mode_bounded_by_n_minus_one(self):
        rng = random.Random(36)
        for _ in range(8):
            e = random_election(rng, rng.randint(2, 5), rng.randint(1, 5))
            distance, witness = sp_deletion_distance(e, "voters")
            assert distance <= e.n - 1
            assert len(witness) == distance

    def test_alternative_mode(self):
        e = Election(list(permutations(range(3))))
        distance, witness = sp_deletion_distance(e, "alternatives")
        assert distance == 1

    def test_single_alternative_needs_no_deletion(self):
        e = Election([(0,)] * 3)
        assert sp_deletion_distance(e, "alternatives") == (0, ())
        assert sp_deletion_distance(e, "voters") == (0, ())

    def test_alternatives_match_rebuild_oracle(self):
        for seed, e in model_profiles(81000, 120, 8, 10):
            assert sp_deletion_distance(e, "alternatives") == rebuilt_alternative_deletion(e), f"seed {seed}"

    def test_unknown_mode(self, election_sp_5x3):
        with pytest.raises(ValueError):
            sp_deletion_distance(election_sp_5x3, "swaps")

    def test_capacity_limits(self):
        wide = Election([tuple(range(9))])
        with pytest.raises(CapacityError):
            sp_deletion_distance(wide, "alternatives")
        tall = Election([(0, 1)] * 11)
        with pytest.raises(CapacityError):
            sp_deletion_distance(tall, "voters")

    def test_voters_match_subset_oracle(self):
        for seed, e in model_profiles(76000, 90, 6, 9):
            assert sp_deletion_distance(e, "voters") == subset_voter_deletion(e), f"seed {seed}"

    def test_voters_match_per_voter_oracle(self):
        for seed, e in typed_profiles(78000, 90, 6, 10):
            assert sp_deletion_distance(e, "voters") == per_voter_deletion(e), f"seed {seed}"

    def test_voters_one_pass_over_axes(self):
        e = generate(GeneratorSpec("impartial-culture", 7, 10, 1)).election
        start = time.perf_counter()
        assert sp_deletion_distance(e, "voters") == (8, (0, 1, 2, 3, 5, 6, 7, 8))
        assert time.perf_counter() - start < 5
