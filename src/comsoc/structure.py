"""Recognition and distance measures for structured preference profiles.

Covers single-peaked and k-peaked profiles along an alternative axis,
single-crossing and k-crossing profiles along the voter order, exact
verification of Euclidean embeddings, group separability, and deletion
distances to single-peakedness. Searches are exhaustive with documented
capacity limits; recognition is exact.

Peak convention: a voter's utility along an axis is ``m - rank``, and the
peak count is the number of strict local maxima of that sequence. A
monotone sequence therefore has exactly one peak (at the boundary), which
makes "single-peaked along the axis" equal to "peak count 1 for every
voter".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .elections import Election, PreferenceOrder
from .errors import CapacityError

AXIS_SEARCH_MAX_M = 10
GROUP_SEP_MAX_M = 20
VOTER_DELETION_MAX_N = 10
ALT_DELETION_MAX_M = 8


def _as_axis(axis, m):
    axis = tuple(axis)
    if sorted(axis) != list(range(m)):
        raise ValueError(f"axis {axis!r} is not a permutation of 0..{m - 1}")
    return axis


def peak_count(order, axis) -> int:
    """Number of strict local maxima of the voter's utility along ``axis``."""
    if not isinstance(order, PreferenceOrder):
        order = PreferenceOrder(order)
    m = order.m
    axis = _as_axis(axis, m)
    utility = [m - order.rank_of(a) for a in axis]
    peaks = 0
    for i, u in enumerate(utility):
        left_ok = i == 0 or utility[i - 1] < u
        right_ok = i == m - 1 or u > utility[i + 1]
        if left_ok and right_ok:
            peaks += 1
    return peaks


def _rank_tables(e: Election):
    """Each distinct voter order with its 1-based rank of every alternative,
    in order of first appearance."""
    return [(order, [order.rank_of(a) for a in range(e.m)]) for order, _ in e.types()]


def _one_peak(ranks, axis) -> bool:
    """True if ``peak_count`` is 1 for the order with these ranks on a valid
    ``axis``: the utility along it rises, then falls, and never rises again.
    Stops at the first rise after a fall."""
    falling = False
    prev = len(ranks) + 1
    for a in axis:
        r = ranks[a]
        if r > prev:
            falling = True
        elif falling:
            return False
        prev = r
    return True


def is_single_peaked_wrt(e: Election, axis) -> bool:
    """True if every voter has exactly one peak along ``axis``."""
    axis = _as_axis(axis, e.m)
    return all(_one_peak(ranks, axis) for _, ranks in _rank_tables(e))


def _single_peaked_axes(e: Election):
    """Axes making ``e`` single-peaked, lexicographically, over all m!."""
    if e.m > AXIS_SEARCH_MAX_M:
        raise CapacityError(f"axis search limited to m <= {AXIS_SEARCH_MAX_M}, got {e.m}")
    tables = [ranks for _, ranks in _rank_tables(e)]
    for axis in permutations(range(e.m)):
        if all(_one_peak(ranks, axis) for ranks in tables):
            yield axis


def find_single_peaked_axis(e: Election):
    """Lexicographically first axis making ``e`` single-peaked, or None.

    Exhaustive over all m! candidate axes.
    """
    return next(_single_peaked_axes(e), None)


def all_single_peaked_axes(e: Election):
    """Every axis making ``e`` single-peaked (reversal-closed by symmetry)."""
    return list(_single_peaked_axes(e))


@dataclass(frozen=True)
class SingleCrossingReport:
    """Per-pair switch counts along a voter order."""

    crossings: dict
    is_single_crossing: bool
    max_crossings: int


def single_crossing_report(e: Election, voter_order=None) -> SingleCrossingReport:
    """Count, per alternative pair, how often consecutive voters switch
    sides along ``voter_order`` (default: the election's voter list)."""
    if voter_order is None:
        voter_order = tuple(range(e.n))
    else:
        voter_order = tuple(voter_order)
        if sorted(voter_order) != list(range(e.n)):
            raise ValueError("voter_order must be a permutation of voter indices")
    sequence = [e.voters[i] for i in voter_order]
    crossings = {}
    for a, b in combinations(range(e.m), 2):
        signs = [v.prefers(a, b) for v in sequence]
        crossings[(a, b)] = sum(
            1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1]
        )
    worst = max(crossings.values()) if crossings else 0
    return SingleCrossingReport(crossings, worst <= 1, worst)


@dataclass(frozen=True)
class EuclideanEmbedding:
    """Positions of alternatives and voters in k-dimensional space.

    Coordinates are exact rationals so verification never rounds.
    """

    dimension: int
    alternatives: tuple
    voters: tuple

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        alts = tuple(tuple(Fraction(x) for x in point) for point in self.alternatives)
        voters = tuple(tuple(Fraction(x) for x in point) for point in self.voters)
        for point in alts + voters:
            if len(point) != self.dimension:
                raise ValueError("point dimension mismatch")
        object.__setattr__(self, "alternatives", alts)
        object.__setattr__(self, "voters", voters)


def _sq_dist(x, y):
    return sum((a - b) * (a - b) for a, b in zip(x, y))


def verify_euclidean(e: Election, emb: EuclideanEmbedding) -> bool:
    """Exact check that every voter prefers the nearer alternative of each
    pair. Distance ties fail the check: strict preference is required."""
    if len(emb.alternatives) != e.m:
        raise ValueError(f"embedding places {len(emb.alternatives)} alternatives, need {e.m}")
    if len(emb.voters) != e.n:
        raise ValueError(f"embedding places {len(emb.voters)} voters, need {e.n}")
    for vi, voter in enumerate(e.voters):
        vpos = emb.voters[vi]
        for a, b in combinations(range(e.m), 2):
            da = _sq_dist(vpos, emb.alternatives[a])
            db = _sq_dist(vpos, emb.alternatives[b])
            if voter.prefers(a, b):
                if not da < db:
                    return False
            elif not db < da:
                return False
    return True


def _subsets_lex(m):
    """Nonempty proper subsets of 0..m-1 as sorted tuples, lexicographically."""

    def rec(prefix, start):
        for i in range(start, m):
            sub = prefix + (i,)
            if len(sub) < m:
                yield sub
                yield from rec(sub, i + 1)

    yield from rec((), 0)


def group_separable_split(e: Election):
    """First (lexicographic) nonempty proper group A such that every voter
    ranks all of A above all of its complement or vice versa, or None."""
    if e.m > GROUP_SEP_MAX_M:
        raise CapacityError(f"group separability limited to m <= {GROUP_SEP_MAX_M}, got {e.m}")
    prefixes = [
        [frozenset(v.ranking[:s]) for s in range(e.m + 1)] for v in e.voters
    ]
    suffixes = [
        [frozenset(v.ranking[e.m - s :]) for s in range(e.m + 1)] for v in e.voters
    ]
    for sub in _subsets_lex(e.m):
        group = frozenset(sub)
        s = len(sub)
        ok = all(
            prefixes[vi][s] == group or suffixes[vi][s] == group
            for vi in range(e.n)
        )
        if ok:
            rest = tuple(c for c in range(e.m) if c not in group)
            return sub, rest
    return None


def sp_deletion_distance(e: Election, mode: str):
    """Minimum deletions (voters or alternatives) to reach single-peakedness.

    Returns (distance, witness): the deleted index set, smallest first
    among minimum-size sets in lexicographic order.
    """
    if mode == "voters":
        if e.n > VOTER_DELETION_MAX_N:
            raise CapacityError(f"voter deletion limited to n <= {VOTER_DELETION_MAX_N}")
        if e.m > AXIS_SEARCH_MAX_M:
            raise CapacityError(f"axis search limited to m <= {AXIS_SEARCH_MAX_M}")
        # Reaching one axis means deleting exactly the voters not single-peaked
        # on it, so the answer is the smallest (size, drop) over all axes.
        # Each distinct order is tested once; its verdict covers its voters.
        voters_of = {}
        for i, v in enumerate(e.voters):
            voters_of.setdefault(v, []).append(i)
        tables = [(voters_of[order], ranks) for order, ranks in _rank_tables(e)]
        best = (e.n + 1, ())
        for axis in permutations(range(e.m)):
            dropped, size = [], 0
            for voters, ranks in tables:
                if not _one_peak(ranks, axis):
                    dropped += voters
                    size += len(voters)
                    if size > best[0]:
                        break
            else:
                best = min(best, (size, tuple(sorted(dropped))))
                if not size:
                    break
        return best
    if mode == "alternatives":
        if e.m > ALT_DELETION_MAX_M:
            raise CapacityError(f"alternative deletion limited to m <= {ALT_DELETION_MAX_M}")
        for size in range(e.m - 1):
            for drop in combinations(range(e.m), size):
                keep = [c for c in range(e.m) if c not in drop]
                relabel = {c: i for i, c in enumerate(keep)}
                reduced = Election(
                    [
                        [relabel[c] for c in v.ranking if c in relabel]
                        for v in e.voters
                    ]
                )
                if find_single_peaked_axis(reduced) is not None:
                    return size, drop
        # Unreachable: two alternatives are always single-peaked.
        raise AssertionError("no two-alternative restriction was single-peaked")
    raise ValueError(f"unknown mode {mode!r}")
