"""Constructive control by deleting voters under d-Approval.

Each voter approves the top ``d`` alternatives of their order; an
alternative's score is its approval count, and the highest score wins
(co-winners allowed by default, strict mode via ``unique``). The question
is whether deleting at most ``k`` voters makes a distinguished alternative
``p`` win.

The solver never deletes a voter who approves ``p`` (removing such a voter
from any witness keeps it a witness), splits the remaining alternatives
into irrelevant ones (score already below ``p``'s) and relevant ones, and
enumerates, per class of voters approving the same relevant subset, how
many of them to delete. Deletions within a class are interchangeable for
``p``'s winner status, so only the counts matter.

An exhaustive search over all deletion subsets serves as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .elections import Election, _tally, _wins
from .errors import CapacityError

BRUTE_FORCE_MAX_SUBSETS = 2_000_000


@dataclass(frozen=True)
class ApprovalView:
    """Per-voter approval sets at depth ``d`` and the induced score map."""

    d: int
    approves: tuple
    scores: tuple


@dataclass(frozen=True)
class ControlInstance:
    election: Election
    d: int
    p: int
    k: int

    def __post_init__(self):
        if not 0 <= self.p < self.election.m:
            raise ValueError(f"distinguished alternative {self.p} not an id")
        if not 0 <= self.k <= self.election.n:
            raise ValueError(f"deletion budget {self.k} out of range")


@dataclass(frozen=True)
class RelevanceSplit:
    """Irrelevant / relevant alternatives and the voter classes over V_R.

    ``irrelevant`` holds every alternative already scoring below ``p``;
    ``relevant`` is the rest (score >= p's score, p excluded). Classes
    partition the voters who approve at least one relevant alternative but
    not ``p``; each class is keyed by the frozenset of relevant
    alternatives its voters approve.
    """

    p: int
    irrelevant: frozenset
    relevant: frozenset
    v_p: tuple
    v_r: tuple
    classes: dict


def approval_view(e: Election, d: int) -> ApprovalView:
    """Approval sets and scores at depth ``d`` (requires ``1 <= d < m``)."""
    if not 1 <= d < e.m:
        raise ValueError(f"approval depth {d} out of range for m={e.m}")
    approves = tuple(v.top(d) for v in e.voters)
    scores = _tally([v.ranking for v in e.voters], (1,) * d, e.m)
    return ApprovalView(d, approves, tuple(scores))


def relevance_split(e: Election, d: int, p: int) -> RelevanceSplit:
    """Split alternatives by whether they can block ``p`` and class the voters."""
    view = approval_view(e, d)
    sp = view.scores[p]
    irrelevant = frozenset(c for c in range(e.m) if c != p and view.scores[c] < sp)
    relevant = frozenset(c for c in range(e.m) if c != p and c not in irrelevant)
    v_p = tuple(i for i, ap in enumerate(view.approves) if p in ap)
    v_r = tuple(
        i
        for i, ap in enumerate(view.approves)
        if p not in ap and ap & relevant
    )
    classes = {}
    for i in v_r:
        classes.setdefault(view.approves[i] & relevant, []).append(i)
    classes = {key: tuple(members) for key, members in classes.items()}
    return RelevanceSplit(p, irrelevant, relevant, v_p, v_r, classes)


def reduce_instance(e: Election, d: int, p: int) -> Election:
    """Drop voters approving only irrelevant alternatives; answer-preserving.

    Such voters feed points to alternatives that already trail ``p`` and
    deleting them can never help, so they are dead weight. One pass
    suffices: removing them leaves the scores of ``p`` and of every
    relevant alternative unchanged and only lowers irrelevant ones, so the
    split is the same afterwards and a second pass removes nothing.
    """
    split = relevance_split(e, d, p)
    view = approval_view(e, d)
    keep = [v for v, ap in zip(e.voters, view.approves) if not ap <= split.irrelevant]
    return Election(keep, labels=e.labels)


def _wins_after_deletion(e: Election, d: int, p: int, deleted, unique: bool) -> bool:
    remaining = [v.ranking for i, v in enumerate(e.voters) if i not in deleted]
    return bool(remaining) and _wins(_tally(remaining, (1,) * d, e.m), p, unique)


def _count_vectors(sizes, budget):
    """Deletion-count vectors (lexicographic) with sum <= budget."""

    def rec(idx, left, acc):
        if idx == len(sizes):
            yield tuple(acc)
            return
        for take in range(min(sizes[idx], left) + 1):
            acc.append(take)
            yield from rec(idx + 1, left - take, acc)
            acc.pop()

    yield from rec(0, budget, [])


def ccdv_fpt(instance: ControlInstance, unique: bool = False):
    """Witness deletion list (at most ``k`` voters) making ``p`` win, or None.

    The no-answer pretest compares the deletion budget's reach ``d * k``
    against the number of alternatives that must lose points. In unique
    mode that is every relevant alternative; in co-winner mode ties with
    ``p`` are already fine, so only strictly higher scorers count.
    Deleting a voter never raises a score, so irrelevant alternatives stay
    below ``p`` and p-approvers are never deleted.
    """
    e, d, p, k = instance.election, instance.d, instance.p, instance.k
    if _wins_after_deletion(e, d, p, frozenset(), unique):
        return []
    split = relevance_split(e, d, p)
    view = approval_view(e, d)
    sp = view.scores[p]
    if unique:
        must_reduce = split.relevant
    else:
        must_reduce = frozenset(c for c in split.relevant if view.scores[c] > sp)
    if len(must_reduce) > d * k:
        return None
    keys = sorted(split.classes, key=lambda key: tuple(sorted(key)))
    members = [split.classes[key] for key in keys]
    sizes = [len(ms) for ms in members]
    for counts in _count_vectors(sizes, k):
        deleted = frozenset(
            idx for ms, take in zip(members, counts) for idx in ms[:take]
        )
        if not deleted:
            continue
        if _wins_after_deletion(e, d, p, deleted, unique):
            return sorted(deleted)
    return None


def ccdv_bruteforce(
    instance: ControlInstance,
    unique: bool = False,
    max_subsets: int = BRUTE_FORCE_MAX_SUBSETS,
):
    """Exhaustive-subset oracle; first witness in (size, lexicographic) order.

    Deleting every voter would leave no election, so the all-voters subset
    is never a witness.
    """
    e, d, p, k = instance.election, instance.d, instance.p, instance.k
    total = 0
    choose = 1
    for size in range(k + 1):
        total += choose
        choose = choose * (e.n - size) // (size + 1)
    if total > max_subsets:
        raise CapacityError(f"{total} deletion subsets, limit {max_subsets}")
    for size in range(k + 1):
        for subset in combinations(range(e.n), size):
            if size == e.n:
                continue
            if _wins_after_deletion(e, d, p, frozenset(subset), unique):
                return list(subset)
    return None
