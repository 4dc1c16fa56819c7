import random
import time
from itertools import combinations

import pytest

from comsoc.control import (
    ControlInstance,
    _wins_after_deletion,
    approval_view,
    ccdv_bruteforce,
    ccdv_fpt,
    reduce_instance,
    relevance_split,
)
from comsoc.elections import Election, ScoringVector, scoring_winners
from comsoc.errors import CapacityError
from comsoc.generators import GeneratorSpec, generate

from conftest import multiplicity_heavy, random_election


def seeded_instances(base_seed, count, max_m=8, max_n=12, max_k=3):
    out = []
    for i in range(count):
        seed = base_seed + i
        rng = random.Random(seed)
        m = rng.randint(2, max_m)
        n = rng.randint(1, max_n)
        d = rng.randint(1, min(3, m - 1))
        k = rng.randint(0, min(max_k, n))
        e = random_election(rng, m, n)
        p = rng.randrange(m)
        out.append((seed, ControlInstance(e, d, p, k)))
    return out


def plain_approval_view(e, d):
    """The former ``approval_view``, tallying voter by voter; the oracle for
    the tally over voter types."""
    top = {order: order.top(d) for order, _ in e.types()}
    approves = tuple(top[v] for v in e.voters)
    scores = [0] * e.m
    for v in e.voters:
        for c in v[:d]:
            scores[c] += 1
    return approves, tuple(scores)


def plain_relevance_split(e, d, p):
    """The former ``relevance_split``, testing every voter's approval set;
    the oracle for the split over distinct sets."""
    approves, scores = plain_approval_view(e, d)
    sp = scores[p]
    irrelevant = frozenset(c for c in range(e.m) if c != p and scores[c] < sp)
    relevant = frozenset(c for c in range(e.m) if c != p and c not in irrelevant)
    v_p = tuple(i for i, ap in enumerate(approves) if p in ap)
    v_r = tuple(i for i, ap in enumerate(approves) if p not in ap and ap & relevant)
    classes = {}
    for i in v_r:
        classes.setdefault(approves[i] & relevant, []).append(i)
    classes = {key: tuple(members) for key, members in classes.items()}
    return irrelevant, relevant, v_p, v_r, classes, scores


def multiplicity_instances(base_seed, count):
    """Control instances on a few distinct orders, each held by many voters."""
    out = []
    for i in range(count):
        seed = base_seed + i
        rng = random.Random(seed)
        m = rng.randint(2, 7)
        e = multiplicity_heavy(rng, m, 5, 8)
        d = rng.randint(1, m - 1)
        out.append((seed, ControlInstance(e, d, rng.randrange(m), rng.randint(0, e.n))))
    return out


def plain_count_vector_search(instance, unique=False):
    """The enumeration ``ccdv_fpt`` used before its in-place search.

    Kept as an oracle for the exact witness: every count vector over the
    sorted classes in lexicographic order, each checked by a full re-tally
    of the remaining voters.
    """
    e, d, p, k = instance.election, instance.d, instance.p, instance.k
    if _wins_after_deletion(e, d, p, frozenset(), unique):
        return []
    _, relevant, _, _, classes, scores = plain_relevance_split(e, d, p)
    if unique:
        must_reduce = relevant
    else:
        must_reduce = frozenset(c for c in relevant if scores[c] > scores[p])
    if len(must_reduce) > d * k:
        return None
    keys = sorted(classes, key=lambda key: tuple(sorted(key)))
    members = [classes[key] for key in keys]

    def count_vectors(idx, left, acc):
        if idx == len(members):
            yield tuple(acc)
            return
        for take in range(min(len(members[idx]), left) + 1):
            acc.append(take)
            yield from count_vectors(idx + 1, left - take, acc)
            acc.pop()

    for counts in count_vectors(0, k, []):
        deleted = frozenset(i for ms, take in zip(members, counts) for i in ms[:take])
        if deleted and _wins_after_deletion(e, d, p, deleted, unique):
            return sorted(deleted)
    return None


def p_last_instances(base_seed, count):
    """Instances where every voter ranks ``p`` = 0 last, so all are in V_R."""
    out = []
    for i in range(count):
        seed = base_seed + i
        rng = random.Random(seed)
        m = rng.randint(3, 7)
        n = rng.randint(1, 10)
        orders = [rng.sample(range(1, m), m - 1) + [0] for _ in range(n)]
        d = rng.randint(1, m - 2)
        k = n if i % 2 else rng.randint(0, n)
        out.append((seed, ControlInstance(Election(orders), d, 0, k)))
    return out


class TestControlInstance:
    @pytest.mark.parametrize("d", [0, 4, 9])
    def test_rejects_depth_out_of_range(self, election_4x3, d):
        with pytest.raises(ValueError, match="approval depth"):
            ControlInstance(election_4x3, d, 0, 1)

    @pytest.mark.parametrize(
        "p, k, message",
        [
            (4, 1, "distinguished alternative 4 not an id"),
            (-1, 1, "distinguished alternative -1 not an id"),
            (0, 4, "deletion budget 4 out of range"),
            (0, -1, "deletion budget -1 out of range"),
        ],
    )
    def test_rejects_target_or_budget_out_of_range(self, election_4x3, p, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ControlInstance(election_4x3, 1, p, k)


class TestApprovalView:
    def test_depth_one_is_plurality(self):
        rng = random.Random(3)
        for _ in range(20):
            e = random_election(rng, rng.randint(2, 6), rng.randint(1, 8))
            view = approval_view(e, 1)
            assert view.scores == scoring_winners(e, ScoringVector.plurality(e.m)).scores

    def test_doc_election_depth_two(self, election_4x3):
        view = approval_view(election_4x3, 2)
        assert view.scores == (2, 3, 1, 0)

    def test_unanimous_depth_two(self):
        e = Election([(2, 0, 1, 3)] * 5)
        view = approval_view(e, 2)
        assert view.scores == (5, 0, 5, 0)

    def test_equal_orders_share_one_approval_set(self):
        rng = random.Random(4)
        for _ in range(20):
            m = rng.randint(2, 5)
            orders = [tuple(rng.sample(range(m), m)) for _ in range(3)]
            # Raw tuples: every voter gets its own PreferenceOrder object.
            e = Election([rng.choice(orders) for _ in range(rng.randint(1, 12))])
            d = rng.randint(1, m - 1)
            view = approval_view(e, d)
            assert view.approves == tuple(v.top(d) for v in e.voters)
            for i, v in enumerate(e.voters):
                for j, w in enumerate(e.voters):
                    if v == w:
                        assert view.approves[i] is view.approves[j]

    def test_matches_per_voter_view(self):
        for seed, inst in multiplicity_instances(74100, 80):
            view = approval_view(inst.election, inst.d)
            expected = plain_approval_view(inst.election, inst.d)
            assert (view.approves, view.scores) == expected, f"seed {seed}"

    def test_depth_out_of_range(self, election_4x3):
        with pytest.raises(ValueError):
            approval_view(election_4x3, 0)
        with pytest.raises(ValueError):
            approval_view(election_4x3, 4)


class TestRelevanceSplit:
    def test_strictly_maximal_p_has_empty_relevant(self):
        e = Election([(0, 1, 2)] * 3)
        split = relevance_split(e, 1, 0)
        assert split.relevant == frozenset()
        assert split.irrelevant == frozenset({1, 2})

    def test_doc_election(self, election_4x3):
        split = relevance_split(election_4x3, 2, 0)
        assert split.relevant == frozenset({1})
        assert split.irrelevant == frozenset({2, 3})

    def test_unanimous_election_with_trailing_p(self):
        # Everyone approves the same two alternatives; p gets nothing.
        # Alternative 3 also gets nothing, which ties p, and ties count as
        # relevant (irrelevance requires a strictly lower score).
        e = Election([(2, 1, 0, 3)] * 4)
        split = relevance_split(e, 2, 0)
        assert split.relevant == frozenset({1, 2, 3})
        assert split.irrelevant == frozenset()
        assert split.v_r == (0, 1, 2, 3)

    def test_classes_partition_v_r(self):
        for seed, inst in seeded_instances(71000, 30):
            split = relevance_split(inst.election, inst.d, inst.p)
            members = [i for ms in split.classes.values() for i in ms]
            assert sorted(members) == sorted(split.v_r), f"seed {seed}"
            assert not set(split.v_p) & set(split.v_r), f"seed {seed}"
            for subset, ms in split.classes.items():
                view = approval_view(inst.election, inst.d)
                for i in ms:
                    assert view.approves[i] & split.relevant == subset

    def test_matches_per_voter_split(self):
        for seed, inst in multiplicity_instances(74200, 120) + seeded_instances(74400, 40):
            e, d, p = inst.election, inst.d, inst.p
            split = relevance_split(e, d, p)
            expected = plain_relevance_split(e, d, p)
            got = (split.irrelevant, split.relevant, split.v_p, split.v_r, split.classes, split.scores)
            assert got == expected, f"seed {seed}"
            # Same classes in the same order of first appearance.
            assert list(split.classes) == list(expected[4]), f"seed {seed}"

    def test_scores_are_the_approval_scores(self):
        for seed, inst in seeded_instances(71500, 30):
            split = relevance_split(inst.election, inst.d, inst.p)
            view = approval_view(inst.election, inst.d)
            assert split.scores == view.scores, f"seed {seed}"


class TestReduceInstance:
    def test_no_candidates_means_unchanged(self):
        e = Election([(0, 1, 2), (1, 0, 2)])
        assert reduce_instance(e, 1, 0) == e

    def test_removes_voter_approving_only_irrelevant(self):
        # Alternative 2 and 3 trail p=0; the last voter approves only them.
        e = Election(
            [
                (0, 1, 2, 3),
                (0, 1, 3, 2),
                (1, 0, 2, 3),
                (2, 3, 0, 1),
            ]
        )
        reduced = reduce_instance(e, 2, 0)
        assert reduced.n == 3
        assert reduced.voters == e.voters[:3]

    def test_idempotent(self):
        for seed, inst in seeded_instances(72000, 40):
            once = reduce_instance(inst.election, inst.d, inst.p)
            twice = reduce_instance(once, inst.d, inst.p)
            assert once == twice, f"seed {seed}"

    def test_matches_irrelevant_only_filter(self):
        cases = seeded_instances(72200, 60) + p_last_instances(72300, 20)
        for seed, inst in cases:
            e, d, p = inst.election, inst.d, inst.p
            split = relevance_split(e, d, p)
            view = approval_view(e, d)
            keep = [v for v, ap in zip(e.voters, view.approves) if not ap <= split.irrelevant]
            assert reduce_instance(e, d, p) == Election(keep, labels=e.labels), f"seed {seed}"

    def test_preserves_oracle_answer_for_all_budgets(self):
        for seed, inst in seeded_instances(72500, 60, max_m=6, max_n=9):
            reduced = reduce_instance(inst.election, inst.d, inst.p)
            for k in range(min(3, inst.election.n) + 1):
                before = (
                    ccdv_bruteforce(
                        ControlInstance(inst.election, inst.d, inst.p, k)
                    )
                    is not None
                )
                after = (
                    ccdv_bruteforce(
                        ControlInstance(reduced, inst.d, inst.p, min(k, reduced.n))
                    )
                    is not None
                )
                assert before == after, f"seed {seed} k={k}"


class TestSolver:
    def test_already_winner_needs_nothing(self):
        e = Election([(0, 1, 2)] * 3)
        assert ccdv_fpt(ControlInstance(e, 1, 0, 2)) == []

    def test_zero_budget_without_win(self):
        e = Election([(1, 0, 2)] * 3)
        assert ccdv_fpt(ControlInstance(e, 1, 0, 0)) is None

    def test_matches_oracle_on_seeded_suite(self):
        for seed, inst in seeded_instances(73000, 120):
            fpt = ccdv_fpt(inst)
            oracle = ccdv_bruteforce(inst)
            assert (fpt is None) == (oracle is None), f"seed {seed}"

    def test_matches_oracle_in_unique_mode(self):
        for seed, inst in seeded_instances(73500, 60):
            fpt = ccdv_fpt(inst, unique=True)
            oracle = ccdv_bruteforce(inst, unique=True)
            assert (fpt is None) == (oracle is None), f"seed {seed}"

    @pytest.mark.parametrize("unique", [False, True])
    def test_witness_identical_to_plain_count_vector_search(self, unique):
        cases = (
            seeded_instances(73800, 150, max_k=12)
            + [(seed, ControlInstance(inst.election, inst.d, inst.p, inst.election.n))
               for seed, inst in seeded_instances(73950, 50)]
            + p_last_instances(73990, 60)
            + multiplicity_instances(74600, 80)
        )
        for seed, inst in cases:
            expected = plain_count_vector_search(inst, unique)
            assert ccdv_fpt(inst, unique) == expected, f"seed {seed}"

    @pytest.mark.parametrize("k", [10, 12])
    def test_excess_cut_ends_a_no_instance_quickly(self, k):
        # The lowest 2-approval scorer needs 11 points taken from one rival.
        e = generate(GeneratorSpec("impartial-culture", 8, 60, 1)).election
        scores = approval_view(e, 2).scores
        p = min(range(8), key=lambda c: (scores[c], c))
        start = time.perf_counter()
        assert ccdv_fpt(ControlInstance(e, 2, p, k)) is None
        assert time.perf_counter() - start < 2

    def test_more_classes_than_the_recursion_limit(self):
        # 1,365 classes over the 4-subsets of 1..15, 364 p-approvers, and
        # one voter whose class {15} puts alternative 15 a point ahead.
        def voter(top):
            return [*top, *(c for c in range(22) if c not in top)]

        voters = [voter(top) for top in combinations(range(1, 16), 4)]
        voters += [voter([0, 16, 17, 18] if i % 2 == 0 else [0, 19, 20, 21]) for i in range(364)]
        voters.append(voter([15, 16, 17, 18]))
        e = Election(voters)
        assert len(relevance_split(e, 4, 0).classes) == 1366
        assert ccdv_fpt(ControlInstance(e, 4, 0, 1)) == [1729]

    def test_witness_is_valid_and_within_budget(self):
        for seed, inst in seeded_instances(74000, 60):
            witness = ccdv_fpt(inst)
            if witness is None:
                continue
            assert len(witness) <= inst.k, f"seed {seed}"
            assert _wins_after_deletion(
                inst.election, inst.d, inst.p, frozenset(witness), False
            ), f"seed {seed}"

    def test_pretest_never_contradicts_oracle(self):
        contradictions = 0
        for seed, inst in seeded_instances(74500, 80):
            view = approval_view(inst.election, inst.d)
            higher = sum(
                1 for c in range(inst.election.m) if view.scores[c] > view.scores[inst.p]
            )
            if higher > inst.d * inst.k:
                if ccdv_bruteforce(inst) is not None:
                    contradictions += 1
        assert contradictions == 0


def test_bruteforce_refuses_past_its_subset_limit():
    # 2^22 deletion subsets: refused before any subset is tried.
    e = Election([(0, 1, 2)] * 22)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="4194304 deletion subsets, limit 2000000"):
        ccdv_bruteforce(ControlInstance(e, 1, 2, 22))
    assert time.perf_counter() - start < 1


class TestProperties:
    def test_within_class_exchangeability(self):
        rng = random.Random(99)
        for seed, inst in seeded_instances(75000, 40, max_m=6, max_n=9):
            witness = ccdv_bruteforce(inst)
            if not witness:
                continue
            split = relevance_split(inst.election, inst.d, inst.p)
            index_class = {}
            for key, ms in split.classes.items():
                for i in ms:
                    index_class[i] = key
            swapped = list(witness)
            for pos, voter in enumerate(swapped):
                if voter not in index_class:
                    continue
                mates = [
                    i
                    for i in split.classes[index_class[voter]]
                    if i not in swapped
                ]
                if mates:
                    swapped[pos] = rng.choice(mates)
            assert _wins_after_deletion(
                inst.election, inst.d, inst.p, frozenset(swapped), False
            ), f"seed {seed}"

    def test_minimal_witnesses_avoid_p_approvers(self):
        for seed, inst in seeded_instances(75500, 50, max_m=6, max_n=8):
            first = ccdv_bruteforce(inst)
            if first is None:
                continue
            size = len(first)
            view = approval_view(inst.election, inst.d)
            for subset in combinations(range(inst.election.n), size):
                if _wins_after_deletion(
                    inst.election, inst.d, inst.p, frozenset(subset), False
                ):
                    for voter in subset:
                        assert inst.p not in view.approves[voter], f"seed {seed}"

    def test_full_budget_boundary(self):
        # k = n: a witness exists iff p wins some nonempty sub-election.
        e = Election([(1, 0), (1, 0)])
        inst = ControlInstance(e, 1, 0, 2)
        assert ccdv_fpt(inst) is None
        assert ccdv_bruteforce(inst) is None

    def test_everyone_approves_p(self):
        e = Election([(0, 1, 2), (0, 2, 1)])
        inst = ControlInstance(e, 1, 0, 2)
        assert ccdv_fpt(inst) == []
        assert ccdv_bruteforce(inst) == []
