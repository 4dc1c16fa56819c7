"""Dodgson score: fewest adjacent swaps that make a target the Condorcet winner.

The score is computed from a typed integer program. Voters sharing a
preference order form a type; the decision variable ``x[i][j]`` counts the
type-``i`` voters in which the target is lifted ``j`` positions. Lifting by
``j`` costs ``j`` swaps and gains one head-to-head support against each of
the ``j`` alternatives passed on the way up. The program minimizes total
swaps subject to covering the target's deficit against every opponent.

The program is solved exactly by depth-first branch and bound (no external
solver, no LP relaxation), one lift amount of one type at a time: a
branch is cut when its cost plus the sum of uncovered deficits cannot beat
the incumbent. Each swap covers at most one deficit unit, so that sum is a
valid lower bound. At each voter type's first stage the search also keeps
the lowest cost seen per vector of remaining deficits, in the spirit of
the deficit DP of Betzler, Guo and Niedermeier (Inf. Comput. 2010), and
cuts a node that arrives there at no lower cost.

A raw breadth-first search over profiles reachable by arbitrary adjacent
swaps serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elections import Election, majority_matrix
from .errors import CapacityError

BRUTE_FORCE_MAX_CELLS = 16
BRUTE_FORCE_MAX_K = 8


@dataclass(frozen=True)
class DodgsonProgram:
    """The typed swap-minimization program for one target alternative.

    ``types`` holds the ``(order, count)`` pairs of :meth:`Election.types`.
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


def build_program(e: Election, c) -> DodgsonProgram:
    """Group voters into types and derive deficits and passing gains for ``c``."""
    if not 0 <= c < e.m:
        raise ValueError(f"target {c} not an alternative id")
    wins = majority_matrix(e)
    threshold = e.n // 2 + 1
    deficits = tuple(
        0 if y == c else max(0, threshold - wins[c][y]) for y in range(e.m)
    )
    types = e.types()
    passed = []
    for order, _ in types:
        pos = order.index(c)
        passed.append(tuple(order[pos - 1 - k] for k in range(pos)))
    return DodgsonProgram(types, c, deficits, tuple(passed))


def dodgson_score(e: Election, c) -> DodgsonSolution | None:
    """Optimal solution of the swap-minimization program for target ``c``.

    The search runs over *stages*: one per voter type and useful lift
    amount ``j``, types in first-appearance order and ``j`` ascending
    within a type. A lift by ``j`` is useful when the ``j``-th alternative
    it passes still has a positive deficit; a longer lift that passes only
    zero-deficit alternatives costs more and gains nothing, so no optimum
    uses one. At each stage the search tries lifting ``x = 0, 1, ...`` of
    the type's still untouched voters by ``j``, depth first from an
    explicit stack (no recursion, so the number of types is not bounded
    by the interpreter's recursion limit). A node is cut when its cost plus
    its uncovered deficits reaches the incumbent, and, at a type's first
    stage, when some deficit exceeds the voters of this and later types
    who rank that alternative above ``c``.

    Each type's first stage keeps a memo from remaining deficits to the
    lowest cost seen there. At that stage the type's row and all later rows
    are untouched, so the subtree depends only on the remaining deficits
    and the incumbent, which only falls. A node whose deficits were seen
    there at a cost no higher is cut: the earlier visit explored the same
    completions at no higher cost, or cut them against an incumbent at
    least as high.

    Tie-break: among optimal solutions, the one whose per-stage counts, read
    in stage order, are lexicographically smallest. Since no optimum uses a
    useless lift, this is the optimum with the lexicographically smallest
    sequence of ``lifts[i][1:]`` rows. The memo keeps it: the earlier visit
    came first in depth-first order, so its stage counts so far are the
    lexicographically smaller ones, and a cut node could only have tied.

    Lifting ``c`` to the top of every order always meets every deficit, so
    a solution exists for every valid input; ``None`` is returned only if
    that guarantee were ever violated, instead of crashing.
    """
    program = build_program(e, c)
    active = [y for y in range(e.m) if program.deficits[y] > 0]
    slot = {y: k for k, y in enumerate(active)}
    # rows[i][0] counts the untouched voters of type i, rows[i][j] those
    # lifted by j; the search updates them in place.
    rows = [[count] + [0] * program.max_lift(i) for i, (_, count) in enumerate(program.types)]

    # Stages as (row, j, deficit slots a lift by j passes, potential, memo).
    # The potential, set only on a type's first stage, counts per deficit the
    # voters of this and later types who rank it above c; the memo, read only
    # there, maps remaining deficits to the lowest cost seen.
    stages = []
    potential = (0,) * len(active)
    for i in range(len(rows) - 1, -1, -1):
        passed = program.passed[i]
        lifts = [j for j in range(len(passed), 0, -1) if passed[j - 1] in slot]
        if not lifts:
            continue
        potential = tuple(
            p + program.types[i][1] if y in passed else p for p, y in zip(potential, active)
        )
        for j in lifts:
            slots = tuple(slot[y] for y in passed[:j] if y in slot)
            stages.append((rows[i], j, slots, potential if j == lifts[-1] else None, {}))
    stages.reverse()

    best = None
    best_lifts = None
    # Frames are [stage, cost, remaining deficits, next count].
    stack = [[0, 0, tuple(program.deficits[y] for y in active), 0]]
    while stack:
        frame = stack[-1]
        s, cost, remaining, x = frame
        if x == 0:
            if best is not None and cost + sum(remaining) >= best:
                stack.pop()
                continue
            if not any(remaining):
                best = cost
                best_lifts = tuple(map(tuple, rows))
                stack.pop()
                continue
            if s == len(stages):
                stack.pop()
                continue
            row, j, slots, potential, memo = stages[s]
            if potential is not None:
                seen = memo.get(remaining)
                if seen is not None and seen <= cost:
                    stack.pop()
                    continue
                memo[remaining] = cost
                if any(r > p for r, p in zip(remaining, potential)):
                    stack.pop()
                    continue
        else:
            row, j, slots, _, _ = stages[s]
            if not row[0] or (best is not None and cost + x * j >= best):
                row[0] += row[j]
                row[j] = 0
                stack.pop()
                continue
            row[0] -= 1
            row[j] = x
            remaining = list(remaining)
            for k in slots:
                remaining[k] = remaining[k] - x if remaining[k] > x else 0
            remaining = tuple(remaining)
        frame[3] = x + 1
        stack.append([s + 1, cost + x * j, remaining, 0])

    if best is None:
        return None
    return DodgsonSolution(best_lifts, best)


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


def dodgson_bruteforce(e: Election, c, k_cap):
    """Minimum adjacent swaps (any pair, any voter) making ``c`` the
    Condorcet winner, by breadth-first search; ``None`` beyond ``k_cap``.
    A negative ``k_cap`` raises ``ValueError``.

    Deliberately independent of the program formulation: swaps are applied
    to raw profiles, including swaps that do not involve ``c``.
    """
    if k_cap < 0:
        raise ValueError(f"k_cap {k_cap} is negative")
    if e.n * e.m > BRUTE_FORCE_MAX_CELLS:
        raise CapacityError(f"profile has {e.n * e.m} cells, limit {BRUTE_FORCE_MAX_CELLS}")
    if k_cap > BRUTE_FORCE_MAX_K:
        raise CapacityError(f"k_cap {k_cap} above limit {BRUTE_FORCE_MAX_K}")
    m, n = e.m, e.n
    start = e.voters
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
