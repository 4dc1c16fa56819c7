"""Dodgson score: fewest adjacent swaps that make a target the Condorcet winner.

The score is computed from a typed integer program. Voters sharing a
preference order form a type; the decision variable ``x[i][j]`` counts the
type-``i`` voters in which the target is lifted ``j`` positions. Lifting by
``j`` costs ``j`` swaps and gains one head-to-head support against each of
the ``j`` alternatives passed on the way up. The program minimizes total
swaps subject to covering the target's deficit against every opponent.

The program is solved exactly by depth-first branch and bound (no external
solver, no LP relaxation): allocations are tried in ascending cost order
and a branch is cut when its cost plus the sum of uncovered deficits
cannot beat the incumbent. Each swap covers at most one deficit unit, so
that sum is a valid lower bound.

A raw breadth-first search over profiles reachable by arbitrary adjacent
swaps serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elections import Election, PreferenceOrder, majority_matrix
from .errors import CapacityError

BRUTE_FORCE_MAX_CELLS = 16
BRUTE_FORCE_MAX_K = 8


@dataclass(frozen=True)
class PreferenceType:
    """A distinct preference order and how many voters share it."""

    order: PreferenceOrder
    multiplicity: int
    index: int


@dataclass(frozen=True)
class DodgsonProgram:
    """The typed swap-minimization program for one target alternative.

    ``passed[i]`` lists the alternatives above the target in type ``i``,
    nearest first, so a lift by ``j`` passes exactly ``passed[i][:j]``.
    ``deficits[y]`` is how many new supporters the target needs against
    ``y``; zero when the target already beats ``y`` strictly.
    """

    types: tuple
    target: int
    deficits: tuple
    passed: tuple

    def max_lift(self, i):
        return len(self.passed[i])


@dataclass(frozen=True)
class DodgsonSolution:
    """A feasible lift assignment; ``lifts[i][j]`` voters of type ``i`` get
    lifted ``j`` positions (``j = 0`` counts untouched voters)."""

    lifts: tuple
    score: int


def group_types(e: Election):
    """Voters grouped into types, in order of first appearance."""
    seen = {}
    counts = []
    for v in e.voters:
        if v not in seen:
            seen[v] = len(counts)
            counts.append(0)
        counts[seen[v]] += 1
    return tuple(
        PreferenceType(order, counts[i], i) for order, i in sorted(seen.items(), key=lambda kv: kv[1])
    )


def build_program(e: Election, c) -> DodgsonProgram:
    """Group voters into types and derive deficits and passing gains for ``c``."""
    if not 0 <= c < e.m:
        raise ValueError(f"target {c} not an alternative id")
    wins = majority_matrix(e)
    threshold = e.n // 2 + 1
    deficits = tuple(
        0 if y == c else max(0, threshold - wins[c][y]) for y in range(e.m)
    )
    types = group_types(e)
    passed = []
    for t in types:
        pos = t.order.rank_of(c) - 1
        passed.append(tuple(t.order[pos - 1 - k] for k in range(pos)))
    return DodgsonProgram(types, c, deficits, tuple(passed))


def _allocations(multiplicity, lifts):
    """All ways to distribute ``multiplicity`` voters over the given lift
    amounts (lift 0 takes the remainder), as (cost, counts_by_lift)."""
    out = []

    def rec(idx, left, cost, counts):
        if idx == len(lifts):
            out.append((cost, tuple(counts) + (left,)))
            return
        j = lifts[idx]
        for take in range(left + 1):
            counts.append(take)
            rec(idx + 1, left - take, cost + j * take, counts)
            counts.pop()

    rec(0, multiplicity, 0, [])
    return out


def dodgson_score(e: Election, c) -> DodgsonSolution | None:
    """Optimal solution of the swap-minimization program for target ``c``.

    Lifting ``c`` to the top of every order always meets every deficit, so
    a solution exists for every valid input; ``None`` is returned only if
    that guarantee were ever violated, instead of crashing.
    """
    program = build_program(e, c)
    active = [y for y in range(e.m) if program.deficits[y] > 0]
    ntypes = len(program.types)
    if not active:
        lifts = tuple((t.multiplicity,) + (0,) * program.max_lift(t.index) for t in program.types)
        return DodgsonSolution(lifts, 0)

    # Gains, potentials and remaining deficits are tuples indexed by
    # position in ``active``, not dicts: they are the search's largest
    # transient allocations.
    slot = {y: k for k, y in enumerate(active)}

    # Lifts that pass only zero-deficit alternatives beyond the last useful
    # one never beat the shorter lift, so they are dropped up front.
    useful = []
    options = []
    for t in program.types:
        lifts = [
            j
            for j in range(1, program.max_lift(t.index) + 1)
            if program.deficits[program.passed[t.index][j - 1]] > 0
        ]
        useful.append(lifts)
        per_type = []
        for cost, counts in sorted(_allocations(t.multiplicity, lifts)):
            gains = [0] * len(active)
            for j, cnt in zip(lifts, counts):
                if cnt:
                    for y in program.passed[t.index][:j]:
                        if y in slot:
                            gains[slot[y]] += cnt
            per_type.append((cost, counts, tuple(gains)))
        options.append(per_type)

    # Suffix support potential, for infeasibility pruning.
    potential = [(0,) * len(active)] * (ntypes + 1)
    for i in range(ntypes - 1, -1, -1):
        t = program.types[i]
        above = set(program.passed[i])
        potential[i] = tuple(
            p + (t.multiplicity if y in above else 0) for p, y in zip(potential[i + 1], active)
        )

    best_cost = None
    best_counts = None
    chosen = [None] * ntypes

    def rec(i, cost, remaining):
        nonlocal best_cost, best_counts
        lower = cost + sum(remaining)
        if best_cost is not None and lower >= best_cost:
            return
        if not any(remaining):
            best_cost = cost
            best_counts = list(chosen)
            for k in range(i, ntypes):
                best_counts[k] = tuple(0 for _ in useful[k])
            return
        if i == ntypes:
            return
        for r, p in zip(remaining, potential[i]):
            if r > p:
                return
        for opt_cost, counts, gains in options[i]:
            if best_cost is not None and cost + opt_cost >= best_cost:
                break
            chosen[i] = counts
            rec(
                i + 1,
                cost + opt_cost,
                tuple([r - g if r > g else 0 for r, g in zip(remaining, gains)]),
            )
        chosen[i] = None

    rec(0, 0, tuple(program.deficits[y] for y in active))
    if best_cost is None:
        return None

    lifts = []
    for i, t in enumerate(program.types):
        counts = [0] * (program.max_lift(i) + 1)
        taken = 0
        for j, cnt in zip(useful[i], best_counts[i]):
            counts[j] = cnt
            taken += cnt
        counts[0] = t.multiplicity - taken
        lifts.append(tuple(counts))
    return DodgsonSolution(tuple(lifts), best_cost)


def dodgson_decision(e: Election, c, k) -> bool:
    """True if at most ``k`` adjacent swaps make ``c`` the Condorcet winner."""
    solution = dodgson_score(e, c)
    return solution is not None and solution.score <= k


def _is_condorcet(profile, c, m, n):
    threshold = n // 2 + 1
    for y in range(m):
        if y == c:
            continue
        support = 0
        for order in profile:
            if order.index(c) < order.index(y):
                support += 1
        if support < threshold:
            return False
    return True


def dodgson_bruteforce(
    e: Election,
    c,
    k_cap,
    max_cells: int = BRUTE_FORCE_MAX_CELLS,
    max_k: int = BRUTE_FORCE_MAX_K,
):
    """Minimum adjacent swaps (any pair, any voter) making ``c`` the
    Condorcet winner, by breadth-first search; ``None`` beyond ``k_cap``.

    Deliberately independent of the program formulation: swaps are applied
    to raw profiles, including swaps that do not involve ``c``.
    """
    if e.n * e.m > max_cells:
        raise CapacityError(f"profile has {e.n * e.m} cells, limit {max_cells}")
    if k_cap > max_k:
        raise CapacityError(f"k_cap {k_cap} above limit {max_k}")
    m, n = e.m, e.n
    start = tuple(v.ranking for v in e.voters)
    if _is_condorcet(start, c, m, n):
        return 0
    frontier = [start]
    visited = {start}
    for depth in range(1, k_cap + 1):
        next_frontier = []
        for profile in frontier:
            for vi in range(n):
                order = profile[vi]
                for pos in range(m - 1):
                    swapped = list(order)
                    swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
                    candidate = profile[:vi] + (tuple(swapped),) + profile[vi + 1 :]
                    if candidate in visited:
                        continue
                    if _is_condorcet(candidate, c, m, n):
                        return depth
                    visited.add(candidate)
                    next_frontier.append(candidate)
        frontier = next_frontier
        if not frontier:
            break
    return None
