"""Exact Kemeny ranking solvers.

Two independent routes compute the same optimum: a factorial brute force
over all rankings (the oracle) and a dynamic program over alternative
subsets (the subset DP of Betzler, Fellows, Guo, Niedermeier and
Rosamond, TCS 2009). The DP first splits the alternatives into the
strongly connected components of the weak-majority digraph, whose order
every optimal ranking respects, and runs on each component alone:
O(2^k * k) work for the largest component k plus O(m^2) bitmask
operations for the split, so structured profiles that split into small
components stay cheap at any m up to the capacity limit. Both routes
break ties toward the lexicographically smallest optimal ranking, so
their results are bit-identical.

The average voter disagreement ``d_a`` (ceiling of the mean pairwise
Kendall tau distance between voters) is computed and reported as a
difficulty measure; no instance shrinking is attached to it. It is read
off the majority matrix in O(m^2): the voter pairs that disagree on
alternatives ``a`` and ``b`` number ``wins[a][b] * wins[b][a]``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import permutations

from .elections import Election, PreferenceOrder, majority_matrix, sum_kendall_tau
from .errors import CapacityError

BRUTE_FORCE_MAX_M = 8
DP_MAX_M = 24


@dataclass(frozen=True)
class KemenyResult:
    """An optimal ranking and its score (total inversions vs all voters)."""

    ranking: PreferenceOrder
    score: int


def kemeny_brute_force(e: Election) -> KemenyResult:
    """Minimum-score ranking by enumerating all m! candidates.

    The score of each candidate ranking is the sum of its Kendall tau
    distances to the voters, computed directly from the definition. Ties
    break to the lexicographically smallest ranking; enumeration order
    already delivers that.
    """
    if e.m > BRUTE_FORCE_MAX_M:
        raise CapacityError(f"brute force limited to m <= {BRUTE_FORCE_MAX_M}, got m={e.m}")
    best_score = None
    best = None
    for candidate in permutations(range(e.m)):
        score = sum_kendall_tau(e, candidate)
        if best_score is None or score < best_score:
            best_score = score
            best = candidate
    return KemenyResult(PreferenceOrder(best), best_score)


def kemeny_dp(e: Election) -> KemenyResult:
    """Minimum-score ranking via dynamic programming over subsets, one
    majority component at a time.

    In the weak-majority digraph ``c`` reaches ``d`` unless ``d`` strictly
    beats ``c``. Its strongly connected components form a chain in which
    every member of an earlier component strictly beats every member of a
    later one, so every optimal ranking lists the components in chain
    order. Warshall's closure gives each alternative a reach mask; members
    of a component share one, and a component's mask contains those of all
    later ones, so sorting the masks in descending order gives the chain.
    Components of two or more alternatives are ordered by
    ``_order_component``; the score is recounted over the concatenation.
    Cost: O(2^k * k) for the largest component ``k``, plus O(m^2) bitmask
    operations for the closure. The capacity limit still applies to m.
    """
    m = e.m
    if m > DP_MAX_M:
        raise CapacityError(f"subset DP limited to m <= {DP_MAX_M}, got m={m}")
    wins = majority_matrix(e).wins
    reach = [sum(1 << d for d in range(m) if wins[d][c] <= wins[c][d]) for c in range(m)]
    for k in range(m):
        for c in range(m):
            if reach[c] >> k & 1:
                reach[c] |= reach[k]
    components = {}
    for c in range(m):
        components.setdefault(reach[c], []).append(c)
    ranking = []
    for mask in sorted(components, reverse=True):
        members = components[mask]
        ranking += members if len(members) == 1 else _order_component(wins, members)
    score = sum(wins[d][c] for i, c in enumerate(ranking) for d in ranking[i + 1 :])
    return KemenyResult(PreferenceOrder(ranking), score)


def _order_component(wins, members):
    """Lexicographically smallest optimal order of ``members`` (ascending ids).

    ``best[S]`` is the cheapest way to order the members in ``S`` as the
    final |S| positions. Placing ``c`` first among ``S`` costs the column
    sum of ``wins[d][c]`` over ``d`` in ``S``: one disagreement per voter
    who prefers a later-placed ``d`` over ``c``. Each member has two
    half-mask tables of that sum, over the low ``h = k // 2`` members and
    over the rest, so the cost is ``lo[S & low] + hi[S >> h]`` and each
    subset takes O(|S|) work, O(2^k * k) in all. Reconstruction uses the
    same lookups and picks the smallest ``c`` achieving the optimum at
    every step, which yields the lexicographically smallest optimal order.
    """
    k = len(members)
    h = k // 2
    low = (1 << h) - 1
    items = [
        (
            1 << i,
            _subset_table([wins[d][c] for d in members[:h]], 0),
            _subset_table([wins[d][c] for d in members[h:]], 0),
        )
        for i, c in enumerate(members)
    ]
    low_members = _subset_table([(item,) for item in items[:h]], ())
    high_members = _subset_table([(item,) for item in items[h:]], ())

    infinity = 1 << 62
    best = array("q", [0]) * (1 << k)
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
    s = (1 << k) - 1
    while s:
        ls, hs = s & low, s >> h
        for c, (bit, lo, hi) in zip(members, items):
            if s & bit and best[s ^ bit] + lo[ls] + hi[hs] == best[s]:
                order.append(c)
                s ^= bit
                break
    return order


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

    Each pair of alternatives ``{a, b}`` splits the voters into the
    ``wins[a][b]`` who rank ``a`` above ``b`` and the ``wins[b][a]`` who
    rank ``b`` above ``a``, and exactly the cross pairs disagree on it. So the sum of
    Kendall tau distances over voter pairs is the sum over ``a < b`` of
    ``wins[a][b] * wins[b][a]``: O(m^2) after the O(n * m^2) tally, in
    exact integers. A single-voter election has no pairs; 0 is returned
    by convention.
    """
    n = e.n
    if n < 2:
        return 0
    wins = majority_matrix(e).wins
    total = sum(wins[a][b] * wins[b][a] for a in range(e.m) for b in range(a + 1, e.m))
    pairs = n * (n - 1) // 2
    return -(-total // pairs)
