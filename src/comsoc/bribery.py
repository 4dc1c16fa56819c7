"""Exact solvers for four bribery flavors under positional scoring rules.

Flavors
-------
unit
    Every bribed voter costs 1; a bribed voter's order may be rewritten
    arbitrarily.
priced
    Like unit, but voter ``v`` costs ``pi_v``.
swap
    Payment per executed adjacent swap, priced per unordered alternative
    pair and per voter.
shift
    Only swaps involving the preferred alternative: voter ``v`` charges
    ``rho_v(t)`` for moving it up ``t`` positions.

All solvers return the minimum cost plan that makes the preferred
alternative a winner (co-winner by default, strict under ``unique``), or
``None`` when no plan fits the budget. Returned plans carry the rewritten
orders and the resulting election so they can be re-validated.

Everything is enumeration plus branch and bound, sized for desk scale;
capacity limits are explicit. Swap and shift share one branch and bound
(:func:`_cheapest_choice`): each voter gets a cost-sorted list of options,
and a depth-first search picks one option per voter. Before the search,
one table per rival gives the least that the voters still to come must
spend so that the preferred alternative catches up with that rival; a
node is cut when some rival cannot be caught within the budget, or when
its cost plus the dearest rival's catch-up cost reaches the incumbent or
exceeds the budget. The bound never exceeds the cost of a winning
completion, so the first optimal plan in search order survives and the
returned plan is the one the search finds without the bound. The tables
are built from the last voter back, one min-plus step per voter over the
margins its options give; each step fills one list in place and stops
each option's row at its first cost over the budget
(:func:`_rival_bound`).

The option lists are built without a :class:`PreferenceOrder` per option.
Swap (:func:`_swap_options`) tabulates every target order once per solve,
with its point column and the cells ``a * m + b`` of its pairs (``a``
ranked above ``b``); a voter's weight list holds the price of each pair
the voter ranks the other way, so a target's cost is a sum of weights over
its cells. Shift (:func:`_shift_options`) starts from the voter's own
point column and moves the preferred alternative up one slot per option.
The search returns the option it chose for each voter, so a plan's
action costs are those options' costs, never priced again; orders, swap
sequences and shifted orders are rebuilt only for the plan returned.

Unit and priced bribery try voter subsets in (cost, index tuple) order and
ask :func:`_rewrite_feasible` whether some rewrite of the subset, with the
preferred alternative on top, makes it win. That search assigns the
orderings of the rivals to the bribed voters. It tries only nondecreasing
sequences of orderings: the voters are interchangeable and points only
grow along a path, so the lexicographically first feasible sequence is
sorted. It cuts a node when the ``t`` smallest rival slacks sum to less
than what any rewrites of the voters left must give ``t`` rivals. Both
cuts drop only sequences that cannot come first, so the plans are those
of the search over every sequence.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations, permutations

from .elections import Election, PreferenceOrder, ScoringVector, _tally, _wins
from .errors import CapacityError

SWAP_MAX_M = 6
REWRITE_MAX_M = 6
REWRITE_MAX_N = 16
# _cheapest_choice recurses once per voter.
BRANCH_MAX_N = 500


def _pair(a, b):
    return (a, b) if a < b else (b, a)


class SwapPriceFunction:
    """Per-voter nonnegative prices for swapping adjacent unordered pairs.

    Each table maps a pair of distinct alternatives to its price, as a
    mapping or as ``(pair, price)`` items; ``(a, b)`` and ``(b, a)`` name
    the same pair and may not be given two different prices.
    """

    def __init__(self, tables):
        normalized = []
        for v, table in enumerate(tables):
            fixed = {}
            for key, cost in table.items() if hasattr(table, "items") else table:
                key = tuple(key)
                if len(key) != 2 or key[0] == key[1]:
                    raise ValueError(f"voter {v}: swap price for {key}, not a distinct pair")
                cost = int(cost)
                if cost < 0:
                    raise ValueError(f"negative swap price for voter {v}")
                pair = _pair(*key)
                if fixed.setdefault(pair, cost) != cost:
                    raise ValueError(f"voter {v}: two prices for pair {pair}")
            normalized.append(fixed)
        self.tables = tuple(normalized)

    @classmethod
    def unit(cls, n, m):
        table = {_pair(a, b): 1 for a, b in combinations(range(m), 2)}
        return cls([dict(table) for _ in range(n)])

    def check_complete(self, m):
        """Every pair of ``0..m-1`` priced for every voter, and no other."""
        for v, table in enumerate(self.tables):
            for a, b in table:
                if a < 0 or b >= m:
                    raise ValueError(f"voter {v}: swap price for pair {(a, b)} outside 0..{m - 1}")
            for a, b in combinations(range(m), 2):
                if _pair(a, b) not in table:
                    raise ValueError(f"voter {v} missing price for pair {(a, b)}")

    def voter_table(self, v):
        return self.tables[v]


class ShiftPriceFunction:
    """Per-voter nondecreasing shift tariffs with ``rho_v(0) = 0``, so none
    is negative.

    ``rho_v`` has one entry per possible upward shift of the preferred
    alternative in voter ``v``'s current order, including the zero shift.
    """

    def __init__(self, rhos):
        fixed = []
        for v, rho in enumerate(rhos):
            rho = tuple(int(x) for x in rho)
            if not rho or rho[0] != 0:
                raise ValueError(f"voter {v}: rho(0) must be 0")
            if any(rho[i] > rho[i + 1] for i in range(len(rho) - 1)):
                raise ValueError(f"voter {v}: rho must be nondecreasing")
            fixed.append(rho)
        self.rhos = tuple(fixed)

    @classmethod
    def linear(cls, e: Election, p):
        """Every voter charges ``t`` for a shift by ``t`` positions."""
        if not 0 <= p < e.m:
            raise ValueError(f"preferred alternative {p} is not an id for m={e.m}")
        return cls([tuple(range(v.rank_of(p))) for v in e.voters])

    def check_against(self, e: Election, p):
        for v, rho in zip(e.voters, self.rhos):
            if len(rho) != v.rank_of(p):
                raise ValueError("rho length must equal the position of the preferred alternative")
        if len(self.rhos) != e.n:
            raise ValueError(f"{len(self.rhos)} tariffs for {e.n} voters")

    def cost(self, v, t):
        return self.rhos[v][t]


@dataclass(frozen=True)
class BriberyBudget:
    """Budget ``limit`` plus optional per-voter prices (None means unit)."""

    limit: int
    prices: tuple | None = None

    def __post_init__(self):
        if self.limit < 0:
            raise ValueError("budget must be nonnegative")
        if self.prices is not None:
            prices = tuple(int(x) for x in self.prices)
            if any(x < 0 for x in prices):
                raise ValueError("voter prices must be nonnegative")
            object.__setattr__(self, "prices", prices)


@dataclass(frozen=True)
class VoterAction:
    voter: int
    new_order: PreferenceOrder
    cost: int
    swaps: tuple = None
    shift: int = None


@dataclass(frozen=True)
class BriberyPlan:
    flavor: str
    actions: tuple
    cost: int
    election: Election


def apply_swap_sequence(order, seq, prices):
    """Execute adjacent swaps in sequence; returns (new order, total cost).

    Each pair must be adjacent when its turn comes; otherwise a ValueError
    names the offending index.
    """
    if not isinstance(order, PreferenceOrder):
        order = PreferenceOrder(order)
    current = list(order)
    cost = 0
    for idx, (a, b) in enumerate(seq):
        pa, pb = current.index(a), current.index(b)
        if abs(pa - pb) != 1:
            raise ValueError(f"swap {idx}: pair ({a}, {b}) is not adjacent")
        current[pa], current[pb] = current[pb], current[pa]
        cost += prices[_pair(a, b)]
    return PreferenceOrder(current), cost


def bubble_sequence(order, target):
    """Adjacent swaps turning ``order`` into ``target``; every discordant
    pair is swapped exactly once (selection of the target prefix)."""
    if not isinstance(order, PreferenceOrder):
        order = PreferenceOrder(order)
    if not isinstance(target, PreferenceOrder):
        target = PreferenceOrder(target)
    current = list(order)
    seq = []
    for goal_pos, alt in enumerate(target):
        pos = current.index(alt)
        while pos > goal_pos:
            seq.append((current[pos - 1], current[pos]))
            current[pos - 1], current[pos] = current[pos], current[pos - 1]
            pos -= 1
    return tuple(seq)


def min_cost_to_target(order, target, prices):
    """Cheapest swap cost from ``order`` to ``target``: the sum of pair
    prices over discordant pairs.

    Every discordant pair must be swapped an odd number of times and every
    concordant pair an even number; with nonnegative prices once and never
    are optimal, and the bubble sequence realizes exactly that.
    """
    if not isinstance(order, PreferenceOrder):
        order = PreferenceOrder(order)
    if not isinstance(target, PreferenceOrder):
        target = PreferenceOrder(target)
    if order.m != target.m:
        raise ValueError("orders rank different alternative sets")
    cost = 0
    for a, b in combinations(range(order.m), 2):
        if order.prefers(a, b) != target.prefers(a, b):
            cost += prices[_pair(a, b)]
    return cost


def _check_instance(e, rule, p, budget):
    if len(rule) != e.m:
        raise ValueError("scoring vector length mismatch")
    if not 0 <= p < e.m:
        raise ValueError(f"preferred alternative {p} is not an id for m={e.m}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")


def _finish_plan(e, rule, p, flavor, actions, cost, unique):
    orders = list(e.voters)
    for action in actions:
        orders[action.voter] = action.new_order
    result = Election(orders, labels=e.labels)
    if not _wins(_tally(result.types(), rule.alpha, e.m), p, unique):
        raise AssertionError(f"{flavor} plan leaves {p} losing")
    return BriberyPlan(flavor, tuple(actions), cost, result)


def _rival_bound(options, p, c, budget):
    """Per voter index ``vi``, the cheapest extra cost with which voters
    ``vi..n-1`` give ``p`` a margin of at least ``g`` over rival ``c``.

    Returns ``(lows, tables)``: ``tables[vi][g - lows[vi]]`` is that cost
    for ``g >= lows[vi]``, and ``tables[vi][0]`` also serves every lower
    ``g``; a ``g`` past the table's end costs more than ``budget``. A
    voter's margin for an option is ``column[p] - column[c]``. Since the
    tables ask for "at least ``g``", an option whose margin is no larger
    than that of a cheaper one never helps. The tables are filled from the
    last voter back by a min-plus step over the margins left, and the
    entries over ``budget``, all at the high end, are dropped.

    The step fills one list in place. The cheapest margin ``d_lo`` writes
    its row (its cost plus the next table), padded with ``budget + 1`` up
    to the largest margin. A margin ``d`` then starts its row at offset
    ``j = d - d_lo``: below it the row is flat at its cost plus
    ``table[0]``, which overwrites only the entries above that value, as
    the list is nondecreasing; from ``j`` on each entry is lowered where
    the row is cheaper. Costs rise along the margins and every table is
    nondecreasing, so a row stops at its first value over ``budget`` and
    the walk stops at the first row that starts over it.
    """
    n = len(options)
    lows = [0] * (n + 1)
    tables = [[] for _ in range(n + 1)]
    tables[n] = [0]
    for vi in range(n - 1, -1, -1):
        table = tables[vi + 1]
        if not table:
            break
        # Options come cheapest first; keep the rising margins, and of two
        # at one cost the larger margin.
        front = []
        for cost, _, column in options[vi]:
            d = column[p] - column[c]
            if not front or d > front[-1][0]:
                while front and front[-1][1] == cost:
                    front.pop()
                front.append((d, cost))
        d_lo, cost = front[0]
        step = [cost + x for x in table]
        step += [budget + 1] * (front[-1][0] - d_lo)
        for d, cost in front[1:]:
            flat = cost + table[0]
            if flat > budget:
                break
            j = d - d_lo
            i = bisect_right(step, flat, 0, j)
            step[i:j] = [flat] * (j - i)
            for x in table:
                x += cost
                if x > budget:
                    break
                if x < step[j]:
                    step[j] = x
                j += 1
        del step[bisect_right(step, budget) :]
        lows[vi], tables[vi] = lows[vi + 1] + d_lo, step
    return lows, tables


def _cheapest_choice(options, m, p, unique, budget):
    """Cheapest choice of one option per voter that makes ``p`` win.

    ``options[v]`` lists voter ``v``'s ``(cost, key, column)`` options in
    nondecreasing, nonnegative cost order, ``column`` being the points the
    option gives each alternative. The depth-first search stops a voter's
    loop at the first option over the budget or not cheaper than the
    incumbent; only a strictly cheaper choice replaces the incumbent, so
    ties go to the first in search order. Returns ``(cost, chosen)``, the
    option chosen for each voter, or None; plans read their costs from it.

    Before the search, :func:`_rival_bound` tabulates per rival ``c`` what
    the voters still to come must at least spend so that ``p`` ends level
    with ``c`` (ahead of it under ``unique``). A node is cut when, for some
    rival, no choice of the remaining voters within the budget closes the
    gap, or when its cost plus the largest per-rival spend exceeds the
    budget or is not below the incumbent. That bound never exceeds the
    cost of a winning leaf below the node. So the first optimal leaf in
    search order is never cut: the incumbent is still dearer when the
    search reaches it. Every other cut drops only leaves that could not
    replace the incumbent, and the result, witness included, is the one
    the search finds without the bound.
    """
    n = len(options)
    bounds = [(c, *_rival_bound(options, p, c, budget)) for c in range(m) if c != p]
    best_cost = None
    best_chosen = None
    chosen = [None] * n

    def rec(vi, cost, scores):
        nonlocal best_cost, best_chosen
        lead = scores[p] - unique
        rest = 0
        for c, lows, tables in bounds:
            table = tables[vi]
            k = scores[c] - lead - lows[vi]
            if k < 0:
                k = 0
            if k >= len(table):
                return
            if table[k] > rest:
                rest = table[k]
        bound = cost + rest
        if bound > budget or (best_cost is not None and bound >= best_cost):
            return
        if vi == n:
            # Tables here are [0] at low 0, so no rival tops scores[p] - unique.
            best_cost = cost
            best_chosen = list(chosen)
            return
        for option in options[vi]:
            total = cost + option[0]
            if total > budget or (best_cost is not None and total >= best_cost):
                break
            chosen[vi] = option
            rec(vi + 1, total, [s + c for s, c in zip(scores, option[2])])

    rec(0, 0, [0] * m)
    return None if best_cost is None else (best_cost, best_chosen)


def _swap_options(e, alpha, prices):
    """Per voter, the ``(cost, target, column)`` of every target order,
    cheapest first and ties in target order.

    The targets, their point columns and their "above" cells ``a * m + b``
    (``a`` ranked above ``b``) are tabulated once. A voter's weights ``w``
    hold at cell ``a * m + b`` the price of ``{a, b}`` when the voter ranks
    ``b`` above ``a``, else 0, so the sum of ``w`` over a target's cells is
    the sum of its discordant pair prices (:func:`min_cost_to_target`).
    ``permutations`` yields the targets in lexicographic order and the sort
    is stable, so sorting their indices by cost gives the (cost, target)
    order.
    """
    m = e.m
    targets = list(permutations(range(m)))
    columns = [tuple(_tally([(t, 1)], alpha, m)) for t in targets]
    cells = [[a * m + b for i, a in enumerate(t) for b in t[i + 1 :]] for t in targets]
    options = []
    for vi, voter in enumerate(e.voters):
        table = prices.voter_table(vi)
        w = [0] * (m * m)
        for i, b in enumerate(voter):
            for a in voter[i + 1 :]:
                w[a * m + b] = table[_pair(a, b)]
        costs = [sum(map(w.__getitem__, c)) for c in cells]
        ranked = sorted(range(len(targets)), key=costs.__getitem__)
        options.append([(costs[j], targets[j], columns[j]) for j in ranked])
    return options


def swap_bribery(
    e: Election,
    rule: ScoringVector,
    p,
    prices: SwapPriceFunction,
    budget,
    unique: bool = False,
):
    """Minimum-cost swap bribery plan within ``budget``, or None.

    Each voter's reachable orders and their exact costs are tabulated
    (every target order is reachable, at the sum of its discordant pair
    prices), then a depth-first search assigns one target per voter,
    cutting branches that cannot beat the incumbent cost or the budget.
    Above ``BRANCH_MAX_N`` voters this raises :class:`CapacityError`,
    unless ``p`` already wins.
    """
    if e.m > SWAP_MAX_M:
        raise CapacityError(f"swap bribery limited to m <= {SWAP_MAX_M}, got {e.m}")
    _check_instance(e, rule, p, budget)
    if len(prices.tables) != e.n:
        raise ValueError(f"{len(prices.tables)} swap price tables for {e.n} voters")
    prices.check_complete(e.m)
    alpha = rule.alpha
    if _wins(_tally(e.types(), alpha, e.m), p, unique):
        return _finish_plan(e, rule, p, "swap", [], 0, unique)
    if e.n > BRANCH_MAX_N:
        raise CapacityError(f"swap bribery limited to n <= {BRANCH_MAX_N}, got {e.n}")

    found = _cheapest_choice(_swap_options(e, alpha, prices), e.m, p, unique, budget)
    if found is None:
        return None
    best_cost, chosen = found
    actions = []
    for vi, (cost, target, _) in enumerate(chosen):
        if target != e.voters[vi]:
            order = PreferenceOrder(target)
            actions.append(VoterAction(vi, order, cost, swaps=bubble_sequence(e.voters[vi], order)))
    return _finish_plan(e, rule, p, "swap", actions, best_cost, unique)


def _shifted(order: PreferenceOrder, p, t):
    pos = order.index(p)
    ranking = list(order)
    del ranking[pos]
    ranking.insert(pos - t, p)
    return PreferenceOrder(ranking)


def _shift_options(e, alpha, p, tariffs):
    """Per voter, the ``(cost, t, column)`` of shifting ``p`` up ``t``
    positions, for ``t`` from 0 to ``p``'s position.

    The column starts as the voter's own and follows ``p`` up one slot at
    a time: ``p`` takes the points of the slot it enters and the
    alternative it passes takes those of the slot ``p`` leaves.
    """
    options = []
    for vi, order in enumerate(e.voters):
        rho = tariffs.rhos[vi]
        column = _tally([(order, 1)], alpha, e.m)
        per_voter = [(rho[0], 0, tuple(column))]
        q = order.index(p)
        for t in range(1, q + 1):
            column[p] = alpha[q - t]
            column[order[q - t]] = alpha[q - t + 1]
            per_voter.append((rho[t], t, tuple(column)))
        options.append(per_voter)
    return options


def shift_bribery(
    e: Election,
    rule: ScoringVector,
    p,
    shift_prices: ShiftPriceFunction,
    budget,
    unique: bool = False,
):
    """Minimum-cost shift bribery plan within ``budget``, or None.

    Exhaustive search over per-voter shift amounts with cost-based
    pruning; tariffs are nondecreasing, so shift amounts in increasing
    order are options in nondecreasing cost order. Above ``BRANCH_MAX_N``
    voters this raises :class:`CapacityError`, unless ``p`` already wins.
    """
    _check_instance(e, rule, p, budget)
    shift_prices.check_against(e, p)
    if _wins(_tally(e.types(), rule.alpha, e.m), p, unique):
        return _finish_plan(e, rule, p, "shift", [], 0, unique)
    if e.n > BRANCH_MAX_N:
        raise CapacityError(f"shift bribery limited to n <= {BRANCH_MAX_N}, got {e.n}")
    found = _cheapest_choice(_shift_options(e, rule.alpha, p, shift_prices), e.m, p, unique, budget)
    if found is None:
        return None
    best_cost, chosen = found
    actions = []
    for vi, (cost, t, _) in enumerate(chosen):
        if t:
            actions.append(VoterAction(vi, _shifted(e.voters[vi], p, t), cost, shift=t))
    return _finish_plan(e, rule, p, "shift", actions, best_cost, unique)


def _rewrite_tables(alpha, p):
    """The rewrites ``_rewrite_feasible`` tries, built once per solve.

    Returns ``(orders, columns, low)``: the orders with ``p`` on top in
    lexicographic order; per order, the points it gives each rival (the
    other alternatives, ascending); and ``low[t - 1]``, the sum of the
    ``t`` smallest entries of ``alpha[1:]``, which is the least that any
    rewrite gives ``t`` rivals together.
    """
    rivals = [c for c in range(len(alpha)) if c != p]
    orders = [(p,) + perm for perm in permutations(rivals)]
    columns = [tuple(alpha[order.index(c)] for c in rivals) for order in orders]
    return orders, columns, list(accumulate(reversed(alpha[1:])))


def _rewrite_feasible(e, alpha, p, subset, unique, tables):
    """Whether some rewrite of ``subset`` (preferred alternative on top)
    makes it win; returns the rewritten orders or None.

    Putting the preferred alternative first is never worse: it maximizes
    its own points and weakly lowers everyone else. Each rival's slack is
    how many more points it may take and still lose to ``p`` (tie with it,
    unless ``unique``). The search assigns one order of ``tables`` (see
    :func:`_rewrite_tables`) to each voter of ``subset``, ascending, and
    returns the lexicographically first sequence of orders that leaves no
    slack negative. Two cuts make it fast:

    * Symmetry: only nondecreasing sequences are tried. The bribed voters
      are interchangeable and points only grow along a path, so sorting a
      feasible sequence keeps it feasible; the first feasible sequence is
      therefore already sorted.
    * Sorted slack: with ``r`` voters still to assign, any ``t`` rivals
      together take at least ``r * low[t - 1]`` more points. A node is cut
      when, for some ``t``, the ``t`` smallest slacks sum to less. With
      ``r = 0`` this is the test that some slack is negative.

    Both cuts drop only sequences that cannot come first, so the witness is
    the one the full search returns.
    """
    orders, columns, low = tables
    fixed = [(v, 1) for i, v in enumerate(e.voters) if i not in subset]
    scores = _tally(fixed, alpha, e.m)
    p_final = scores[p] + len(subset) * alpha[0] - unique
    chosen = []

    def rec(r, start, slack):
        total = 0
        for need, s in zip(low, sorted(slack)):
            total += s
            if total < r * need:
                return False
        if r == 0:
            return True
        for j in range(start, len(columns)):
            if rec(r - 1, j, [s - c for s, c in zip(slack, columns[j])]):
                chosen.append(j)
                return True
        return False

    if not rec(len(subset), 0, [p_final - scores[c] for c in range(e.m) if c != p]):
        return None
    # ``chosen`` fills from the last voter back.
    return {vi: PreferenceOrder(orders[j]) for vi, j in zip(sorted(subset), reversed(chosen))}


def unit_or_priced_bribery(
    e: Election,
    rule: ScoringVector,
    p,
    budget: BriberyBudget,
    unique: bool = False,
):
    """Minimum-cost bribery (unit or per-voter priced) plan, or None.

    Voter subsets are tried in ascending (cost, index tuple) order, so the
    first subset admitting a winning rewrite is a cheapest one.
    """
    if e.m > REWRITE_MAX_M:
        raise CapacityError(f"rewrite bribery limited to m <= {REWRITE_MAX_M}, got {e.m}")
    if e.n > REWRITE_MAX_N:
        raise CapacityError(f"rewrite bribery limited to n <= {REWRITE_MAX_N}, got {e.n}")
    _check_instance(e, rule, p, budget.limit)
    if budget.prices is not None and len(budget.prices) != e.n:
        raise ValueError(f"{len(budget.prices)} voter prices for {e.n} voters")
    alpha = rule.alpha
    flavor = "unit" if budget.prices is None else "priced"

    prices = budget.prices or (1,) * e.n
    subsets = sorted(
        (cost, subset)
        for size in range(e.n + 1)
        for subset in combinations(range(e.n), size)
        if (cost := sum(prices[v] for v in subset)) <= budget.limit
    )

    tables = _rewrite_tables(alpha, p)
    for cost, subset in subsets:
        rewrites = _rewrite_feasible(e, alpha, p, set(subset), unique, tables)
        if rewrites is None:
            continue
        actions = [VoterAction(vi, order, prices[vi]) for vi, order in sorted(rewrites.items())]
        return _finish_plan(e, rule, p, flavor, actions, cost, unique)
    return None
