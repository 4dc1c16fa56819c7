"""Recognition and distance measures for structured preference profiles.

Covers single-peaked and k-peaked profiles along an alternative axis,
single-crossing and k-crossing profiles along the voter order, exact
verification of Euclidean embeddings, group separability, and deletion
distances to single-peakedness. Recognition is exact. The axis searches are
exhaustive with documented capacity limits; alternative deletion reuses the
axis search on the kept alternatives. Group separability is polynomial and
has no limit.

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
    """The 1-based rank of every alternative in each distinct voter order,
    in order of first appearance."""
    return [[order.rank_of(a) for a in range(e.m)] for order, _ in e.types()]


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
    return all(_one_peak(ranks, axis) for ranks in _rank_tables(e))


def _single_peaked_axes(tables, alternatives):
    """Orders of the ascending ``alternatives`` along which every rank table
    has one peak, lexicographically, over all of their permutations.

    Restricting an order to some alternatives keeps their relative ranks,
    so the full tables serve for any subset of the alternatives."""
    if len(alternatives) > AXIS_SEARCH_MAX_M:
        raise CapacityError(
            f"axis search limited to m <= {AXIS_SEARCH_MAX_M}, got {len(alternatives)}"
        )
    for axis in permutations(alternatives):
        if all(_one_peak(ranks, axis) for ranks in tables):
            yield axis


def find_single_peaked_axis(e: Election):
    """Lexicographically first axis making ``e`` single-peaked, or None.

    Exhaustive over all m! candidate axes.
    """
    return next(_single_peaked_axes(_rank_tables(e), range(e.m)), None)


def all_single_peaked_axes(e: Election):
    """Every axis making ``e`` single-peaked (reversal-closed by symmetry)."""
    return list(_single_peaked_axes(_rank_tables(e), range(e.m)))


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


def group_separable_split(e: Election):
    """First (lexicographic) nonempty proper group A such that every voter
    ranks all of A above all of its complement or vice versa, or None.

    Such a group is a top or bottom segment of every order (Inada 1964),
    so only the 2(m - 1) segments of the first voter's order are tried,
    each against every distinct order: a set of s alternatives is an
    order's top segment when its worst rank is s, its bottom segment when
    its best rank is m - s + 1.
    """
    m = e.m
    tables = _rank_tables(e)
    first = e.voters[0].ranking
    segments = [first[:s] for s in range(1, m)] + [first[s:] for s in range(1, m)]
    valid = [
        tuple(sorted(seg))
        for seg in segments
        if all(
            max(ranks[a] for a in seg) == len(seg)
            or min(ranks[a] for a in seg) == m - len(seg) + 1
            for ranks in tables
        )
    ]
    if not valid:
        return None
    group = min(valid)
    return group, tuple(c for c in range(m) if c not in group)


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
        # ``voters_of`` and ``_rank_tables`` both follow first appearance.
        tables = list(zip(voters_of.values(), _rank_tables(e)))
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
    if mode != "alternatives":
        raise ValueError(f"unknown mode {mode!r}")
    if e.m > ALT_DELETION_MAX_M:
        raise CapacityError(f"alternative deletion limited to m <= {ALT_DELETION_MAX_M}")
    # One or two alternatives are always single-peaked, so a drop set of
    # size max(0, m - 2) ends the loop.
    tables = _rank_tables(e)
    for size in range(e.m):
        for drop in combinations(range(e.m), size):
            keep = [c for c in range(e.m) if c not in drop]
            if next(_single_peaked_axes(tables, keep), None) is not None:
                return size, drop
