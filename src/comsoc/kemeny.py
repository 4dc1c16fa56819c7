"""Exact Kemeny ranking solvers.

Two independent routes compute the same optimum: a factorial brute force
over all rankings (the oracle) and a dynamic program over alternative
subsets (the subset DP of Betzler, Fellows, Guo, Niedermeier and
Rosamond, TCS 2009). The DP first splits the alternatives into the
strongly connected components of the weak-majority digraph, whose order
every optimal ranking respects, and runs on each component alone, so
structured profiles that split into small components stay cheap at any m
up to the capacity limit. On each component two bounds enclose the
optimum: the pairwise lower bound (each pair costs at least its minority)
and an upper bound from the Borda order improved by single-alternative
moves. The DP counts costs above the lower bound, which never fall along
a path, and stores only the subsets whose cost stays within the upper
bound. Impartial-culture components of 17 to 24 alternatives with 51
voters then store under 0.5% of their subsets. A component whose bounds
meet (a fully tied one, say) would store every subset; it skips the DP,
since its optimal orders are those that never rank a member above one
that strictly beats it, and the smallest of them is built greedily. Both
routes break ties toward the lexicographically smallest optimal ranking,
so their results are bit-identical.

The average voter disagreement ``d_a`` (ceiling of the mean pairwise
Kendall tau distance between voters) is computed and reported as a
difficulty measure; no instance shrinking is attached to it. It is read
off the majority matrix in O(m^2): the voter pairs that disagree on
alternatives ``a`` and ``b`` number ``wins[a][b] * wins[b][a]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

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

    Within a component, ``lb`` is the sum over pairs of
    ``min(wins[a][b], wins[b][a])`` and ``ub`` the score of the Borda
    order after single-alternative moves until none lowers it. The subset
    DP is reweighted so that each step costs the majority margins by which
    the placed alternative beats the members still in front of it, which
    are never negative; a subset whose cost exceeds ``ub`` lies on no optimal
    ranking and is not stored. Every suffix set of every optimal ranking
    keeps its exact cost, so reconstruction still picks the smallest
    alternative at each step and the tie-break is the plain DP's: the
    lexicographically smallest optimal ranking. Cost: O(m^2) bitmask
    operations for the closure, O(k^2) per improving pass for ``ub``, and
    O(k) per stored subset, at most O(2^k * k) for the largest component
    ``k`` when little is pruned; a component whose bounds meet takes
    O(k^3) instead. The capacity limit still applies to m.
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
    return KemenyResult(PreferenceOrder(ranking), _score(wins, ranking))


def _order_component(wins, members):
    """Lexicographically smallest optimal order of ``members`` (ascending ids).

    ``F[S]`` is the cheapest cost of placing the members in ``S`` as the
    final |S| positions, counted as ``lb`` plus
    ``max(0, wins[c][d] - wins[d][c])`` for every ``c`` in ``S`` and ``d``
    ranked above it. It differs from the plain DP's cost of
    ``S`` by a term fixed by ``S``. Placing ``c`` just in front of ``S``
    adds ``c``'s excess over the members still in front of it: its row
    total minus its excess over ``S``, read from two half-mask tables over
    the low ``h = k // 2`` members and the rest. One dict per layer |S|
    keeps only the subsets with ``F[S] <= ub``, each with its exact value
    (see ``kemeny_dp``). Reconstruction walks down from the full set and
    takes the smallest ``c`` whose predecessor is stored and attains
    ``F[S]``; a predecessor that is not stored counts as infinite.

    When ``ub == lb`` the DP is skipped, since it would keep every subset
    that costs ``lb`` (all of them in a fully tied component):
    :func:`_tied_order` builds the same order directly.
    """
    lb = sum(min(wins[c][d], wins[d][c]) for c, d in combinations(members, 2))
    ub = _score(wins, _insertion_order(wins, members))
    if ub == lb:
        return _tied_order(wins, members)
    k = len(members)
    h = k // 2
    low = (1 << h) - 1
    items = []
    for i, c in enumerate(members):
        excess = [max(0, wins[c][d] - wins[d][c]) for d in members]
        items.append((1 << i, sum(excess), _subset_table(excess[:h], 0), _subset_table(excess[h:], 0)))

    layers = [{0: lb}]
    for _ in range(k):
        layer = {}
        for s, f in layers[-1].items():
            ls, hs = s & low, s >> h
            for bit, total, lo, hi in items:
                if not s & bit:
                    g = f + total - lo[ls] - hi[hs]
                    if g <= ub and layer.get(s | bit, g + 1) > g:
                        layer[s | bit] = g
        layers.append(layer)

    order = []
    s = (1 << k) - 1
    f = layers[k][s]
    for below in reversed(layers[:-1]):
        ls, hs = s & low, s >> h
        for c, (bit, total, lo, hi) in zip(members, items):
            if s & bit:
                g = below.get(s ^ bit)
                if g is not None and g + total - lo[ls] - hi[hs] == f:
                    order.append(c)
                    s ^= bit
                    f = g
                    break
    return order


def _tied_order(wins, members):
    """Lexicographically smallest order of ``members`` in which no member
    is ranked above one that strictly beats it.

    When such orders exist they are exactly the orders scoring the
    pairwise lower bound, so this is what the DP returns when its bounds
    meet. They are the linear extensions of the strict majority relation,
    and the smallest is built by repeatedly taking the smallest remaining
    member that no remaining member strictly beats: O(k^3) for k members.
    """
    left = list(members)
    order = []
    while left:
        c = next(c for c in left if all(wins[d][c] <= wins[c][d] for d in left))
        left.remove(c)
        order.append(c)
    return order


def _insertion_order(wins, members):
    """Borda order of ``members`` (ties to the smaller id), improved by
    moving single alternatives until no move lowers the score."""
    order = sorted(members, key=lambda c: -sum(wins[c][d] for d in members))
    improved = True
    while improved:
        improved = False
        for i in range(len(order)):
            x = order[i]
            best, target = 0, i
            delta = 0
            for j in range(i + 1, len(order)):  # move x below order[j]
                y = order[j]
                delta += wins[x][y] - wins[y][x]
                if delta < best:
                    best, target = delta, j
            delta = 0
            for j in range(i - 1, -1, -1):  # move x above order[j]
                y = order[j]
                delta += wins[y][x] - wins[x][y]
                if delta < best:
                    best, target = delta, j
            if target != i:
                order.insert(target, order.pop(i))
                improved = True
    return order


def _score(wins, order):
    """Disagreements of ``order`` with the voters, over its own pairs."""
    return sum(wins[d][c] for i, c in enumerate(order) for d in order[i + 1 :])


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
