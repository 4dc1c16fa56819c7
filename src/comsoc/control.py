"""Constructive control by deleting voters under d-Approval.

Each voter approves the top ``d`` alternatives of their order; an
alternative's score is its approval count, and the highest score wins
(co-winners allowed by default, strict mode via ``unique``). The question
is whether deleting at most ``k`` voters makes a distinguished alternative
``p`` win.

The solver builds the approval view once, never deletes a voter who
approves ``p`` (removing such a voter from any witness keeps it a
witness), splits the other alternatives into irrelevant ones (score
already below ``p``'s) and relevant ones, and searches, per class of
voters approving the same relevant subset, how many of them to delete:
deletions within a class are interchangeable for ``p``'s winner status.
The search runs from an explicit stack, updates the scores in place as it
deletes and backtracks, and cuts a node once the budget or the approvers
left cannot bring some alternative down to ``p``'s score.

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
    """Per-voter approval sets at depth ``d`` and the induced score map.

    Voters with equal orders share one approval set object.
    """

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
        if not 1 <= self.d < self.election.m:
            raise ValueError(f"approval depth {self.d} out of range for m={self.election.m}")
        if not 0 <= self.k <= self.election.n:
            raise ValueError(f"deletion budget {self.k} out of range")


@dataclass(frozen=True)
class RelevanceSplit:
    """Irrelevant / relevant alternatives and the voter classes over V_R.

    ``irrelevant`` holds every alternative already scoring below ``p``;
    ``relevant`` is the rest (score >= p's score, p excluded). Classes
    partition the voters who approve at least one relevant alternative but
    not ``p``; each class is keyed by the frozenset of relevant
    alternatives its voters approve. ``scores`` are the approval scores
    the split was built from.
    """

    p: int
    irrelevant: frozenset
    relevant: frozenset
    v_p: tuple
    v_r: tuple
    classes: dict
    scores: tuple


def approval_view(e: Election, d: int) -> ApprovalView:
    """Approval sets and scores at depth ``d`` (requires ``1 <= d < m``)."""
    if not 1 <= d < e.m:
        raise ValueError(f"approval depth {d} out of range for m={e.m}")
    types = e.types()
    top = {order: order.top(d) for order, _ in types}
    scores = _tally(types, (1,) * d, e.m)
    return ApprovalView(d, tuple(map(top.__getitem__, e.voters)), tuple(scores))


def relevance_split(e: Election, d: int, p: int) -> RelevanceSplit:
    """Split alternatives by whether they can block ``p`` and class the voters."""
    view = approval_view(e, d)
    sp = view.scores[p]
    irrelevant = frozenset(c for c in range(e.m) if c != p and view.scores[c] < sp)
    relevant = frozenset(c for c in range(e.m) if c != p and c not in irrelevant)
    # Voters with equal orders share one approval set, so each distinct set
    # is tested once: None for p's approvers, else its relevant alternatives.
    approves = view.approves
    key_of = {ap: None if p in ap else ap & relevant for ap in set(approves)}
    v_p = tuple(i for i, ap in enumerate(approves) if key_of[ap] is None)
    v_r = tuple(i for i, ap in enumerate(approves) if key_of[ap])
    classes = {}
    for i in v_r:
        classes.setdefault(key_of[approves[i]], []).append(i)
    classes = {key: tuple(members) for key, members in classes.items()}
    return RelevanceSplit(p, irrelevant, relevant, v_p, v_r, classes, view.scores)


def reduce_instance(e: Election, d: int, p: int) -> Election:
    """Drop voters approving only irrelevant alternatives; answer-preserving.

    Such voters feed points to alternatives that already trail ``p`` and
    deleting them can never help, so they are dead weight. One pass
    suffices: removing them leaves the scores of ``p`` and of every
    relevant alternative unchanged and only lowers irrelevant ones, so the
    split is the same afterwards and a second pass removes nothing. The
    voters kept are exactly V_P and V_R.
    """
    split = relevance_split(e, d, p)
    return Election([e.voters[i] for i in sorted(split.v_p + split.v_r)], labels=e.labels)


def _wins_after_deletion(e: Election, d: int, p: int, deleted, unique: bool) -> bool:
    remaining = [(v, 1) for i, v in enumerate(e.voters) if i not in deleted]
    return bool(remaining) and _wins(_tally(remaining, (1,) * d, e.m), p, unique)


def ccdv_fpt(instance: ControlInstance, unique: bool = False):
    """Witness deletion list (at most ``k`` voters) making ``p`` win, or None.

    The no-answer pretest compares the deletion budget's reach ``d * k``
    against the number of alternatives that must lose points. In unique
    mode that is every relevant alternative; in co-winner mode ties with
    ``p`` are already fine, so only strictly higher scorers count.

    The search takes 0, 1, ... voters from each class in sorted-key order
    and returns the first winning count vector's deletions, the first
    ``take`` members of each class. It runs depth first from an explicit
    stack of ``[class index, budget left, next take]`` frames, so the
    number of classes is not bounded by the interpreter's recursion limit.
    It subtracts each deleted voter's class key from the scores in place,
    which gives a full re-tally's verdict: p-approvers are never deleted,
    so ``p``'s score is fixed, and the unsubtracted approvals of irrelevant
    alternatives only leave those scores above their true values but still
    below ``p``'s. The budget is capped at ``n - 1``: deleting every voter
    leaves no election.

    Each node is cut when a must-reduce alternative's excess (its score
    minus ``p``'s, plus one in unique mode) is larger than the budget left
    or than the voters of this and later classes who approve it: each
    deletion lowers it by at most one. Such a subtree holds no winning
    vector, so the cut never changes which witness is found first. Past
    the last class no voter is left, so a node that survives the cut there
    has every excess at most zero: ``p`` wins. If ``p`` already wins, no
    node is cut, and the first vector, all zeros, returns ``[]``.
    """
    e, d, p, k = instance.election, instance.d, instance.p, instance.k
    split = relevance_split(e, d, p)
    scores = list(split.scores)
    must_reduce = [c for c in split.relevant if unique or scores[c] > scores[p]]
    if len(must_reduce) > d * k:
        return None
    keys = sorted(split.classes, key=lambda key: tuple(sorted(key)))
    classes = [split.classes[key] for key in keys]
    # approvers[i][j]: voters of classes i, i + 1, ... who approve must_reduce[j].
    approvers = [(0,) * len(must_reduce)]
    for key, members in zip(reversed(keys), reversed(classes)):
        approvers.append(
            tuple(a + len(members) if c in key else a for a, c in zip(approvers[-1], must_reduce))
        )
    approvers.reverse()
    ceiling = scores[p] - unique

    stack = [[0, min(k, e.n - 1), 0]]
    while stack:
        frame = stack[-1]
        idx, left, take = frame
        if take == 0:
            if any(
                scores[c] - ceiling > min(left, a) for c, a in zip(must_reduce, approvers[idx])
            ):
                stack.pop()
                continue
            if idx == len(keys):
                return sorted(i for j, _, after in stack[:-1] for i in classes[j][: after - 1])
        elif take > min(len(classes[idx]), left):
            for c in keys[idx]:
                scores[c] += take - 1
            stack.pop()
            continue
        else:
            for c in keys[idx]:
                scores[c] -= 1
        frame[2] = take + 1
        stack.append([idx + 1, left - take, 0])
    return None


def ccdv_bruteforce(instance: ControlInstance, unique: bool = False):
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
    if total > BRUTE_FORCE_MAX_SUBSETS:
        raise CapacityError(f"{total} deletion subsets, limit {BRUTE_FORCE_MAX_SUBSETS}")
    for size in range(k + 1):
        for subset in combinations(range(e.n), size):
            if size == e.n:
                continue
            if _wins_after_deletion(e, d, p, frozenset(subset), unique):
                return list(subset)
    return None
