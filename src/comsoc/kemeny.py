"""Exact Kemeny ranking solvers.

Two independent routes compute the same optimum: a factorial brute force
over all rankings (the oracle) and a dynamic program over the 2^m
alternative subsets with O(2^m * m) work (the subset DP of Betzler,
Fellows, Guo, Niedermeier and Rosamond, TCS 2009). Both break ties toward
the lexicographically smallest optimal ranking, so their results are
bit-identical.

The average voter disagreement ``d_a`` (ceiling of the mean pairwise
Kendall tau distance between voters) is computed and reported as a
difficulty measure; no instance shrinking is attached to it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations, permutations

from .elections import Election, PreferenceOrder, kendall_tau, majority_matrix, sum_kendall_tau
from .errors import CapacityError

BRUTE_FORCE_MAX_M = 8
DP_MAX_M = 24


@dataclass(frozen=True)
class KemenyResult:
    """An optimal ranking and its score (total inversions vs all voters)."""

    ranking: PreferenceOrder
    score: int


def kemeny_brute_force(e: Election, max_m: int = BRUTE_FORCE_MAX_M) -> KemenyResult:
    """Minimum-score ranking by enumerating all m! candidates.

    The score of each candidate ranking is the sum of its Kendall tau
    distances to the voters, computed directly from the definition. Ties
    break to the lexicographically smallest ranking; enumeration order
    already delivers that.
    """
    if e.m > max_m:
        raise CapacityError(f"brute force limited to m <= {max_m}, got m={e.m}")
    best_score = None
    best = None
    for candidate in permutations(range(e.m)):
        score = sum_kendall_tau(e, candidate)
        if best_score is None or score < best_score:
            best_score = score
            best = candidate
    return KemenyResult(PreferenceOrder(best), best_score)


def kemeny_dp(e: Election, max_m: int = DP_MAX_M) -> KemenyResult:
    """Minimum-score ranking via dynamic programming over subsets.

    ``best[S]`` is the cheapest way to order the alternatives of ``S`` as
    the final |S| positions. Placing ``c`` first among ``S`` costs the
    column sum of ``wins[d][c]`` over ``d`` in ``S``: one disagreement per
    voter who prefers a later-placed ``d`` over ``c``. Each alternative has
    two half-mask tables of that sum, over the low ``h = m // 2``
    alternatives and over the rest, so the cost is
    ``lo[S & low] + hi[S >> h]`` and each subset takes O(|S|) work, O(2^m * m)
    in all. Reconstruction uses the same lookups and picks the smallest
    ``c`` achieving the optimum at every step, which yields the
    lexicographically smallest optimal ranking.
    """
    m = e.m
    if m > max_m:
        raise CapacityError(f"subset DP limited to m <= {max_m}, got m={m}")
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

    full = (1 << m) - 1
    ranking = []
    s = full
    while s:
        ls, hs = s & low, s >> h
        for c, (bit, lo, hi) in enumerate(items):
            if s & bit and best[s ^ bit] + lo[ls] + hi[hs] == best[s]:
                ranking.append(c)
                s ^= bit
                break
    return KemenyResult(PreferenceOrder(ranking), int(best[full]))


def _subset_table(items, zero):
    """``table[x]`` is ``zero`` plus ``items[i]`` for each bit ``i`` of ``x``, in bit order."""
    table = [zero]
    for item in items:
        table += [t + item for t in table]
    return table


def kemeny_decision(e: Election, k: int) -> bool:
    """True if some ranking has score at most ``k``."""
    if k < 0:
        return False
    return kemeny_dp(e).score <= k


def avg_pairwise_distance(e: Election) -> int:
    """Ceiling of the mean Kendall tau distance over all voter pairs.

    A single-voter election has no pairs; 0 is returned by convention.
    """
    n = e.n
    if n < 2:
        return 0
    total = sum(kendall_tau(v, w) for v, w in combinations(e.voters, 2))
    pairs = n * (n - 1) // 2
    return -(-total // pairs)
