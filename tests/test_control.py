import random
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

from conftest import random_election


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


def plain_count_vector_search(instance, unique=False):
    """The enumeration ``ccdv_fpt`` used before its in-place search.

    Kept as an oracle for the exact witness: every count vector over the
    sorted classes in lexicographic order, each checked by a full re-tally
    of the remaining voters.
    """
    e, d, p, k = instance.election, instance.d, instance.p, instance.k
    if _wins_after_deletion(e, d, p, frozenset(), unique):
        return []
    split = relevance_split(e, d, p)
    scores = approval_view(e, d).scores
    if unique:
        must_reduce = split.relevant
    else:
        must_reduce = frozenset(c for c in split.relevant if scores[c] > scores[p])
    if len(must_reduce) > d * k:
        return None
    keys = sorted(split.classes, key=lambda key: tuple(sorted(key)))
    members = [split.classes[key] for key in keys]

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
        )
        for seed, inst in cases:
            expected = plain_count_vector_search(inst, unique)
            assert ccdv_fpt(inst, unique) == expected, f"seed {seed}"

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
