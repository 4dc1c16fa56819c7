"""Answer checks that do not trust the solvers.

Every check works on raw orders (tuples of alternative ids, best first)
with its own tallies, and returns ``None`` when the answer holds or a
one-line reason when it does not. None of them calls into ``comsoc``.
"""

from __future__ import annotations

from itertools import combinations


def tally(orders, m):
    """``w[a][b]`` voters rank ``a`` above ``b``."""
    w = [[0] * m for _ in range(m)]
    for order in orders:
        for i, a in enumerate(order):
            row = w[a]
            for b in order[i + 1 :]:
                row[b] += 1
    return w


def positional_scores(orders, alpha, m):
    scores = [0] * m
    for order in orders:
        for pos, alt in enumerate(order):
            scores[alt] += alpha[pos]
    return scores


def approval_scores(orders, d, m):
    return positional_scores(orders, (1,) * d + (0,) * (m - d), m)


def co_winner(scores, p):
    return scores[p] == max(scores)


def condorcet(w, n):
    m = len(w)
    for c in range(m):
        if all(2 * w[c][d] > n for d in range(m) if d != c):
            return c
    return None


def distinct_orders(orders):
    return len(set(orders))


def _is_permutation(seq, m):
    return sorted(seq) == list(range(m))


def kemeny_score(w, ranking):
    """Disagreements of ``ranking`` with every voter: for each pair placed
    ``a`` before ``b``, the voters who put ``b`` above ``a``."""
    return sum(w[b][a] for a, b in combinations(ranking, 2))


def avg_disagreement(w, n):
    """Ceiling of the mean Kendall tau distance over voter pairs: two voters
    disagree on ``{a, b}`` exactly when one ranks ``a`` above ``b`` and the
    other does not."""
    if n < 2:
        return 0
    total = sum(w[a][b] * w[b][a] for a, b in combinations(range(len(w)), 2))
    pairs = n * (n - 1) // 2
    return -(-total // pairs)


def check_kemeny(w, n, ranking, score, d_a):
    """Recount the score and ``d_a``, and check that no single move of one
    alternative lowers the score and that it is at least the pairwise lower
    bound."""
    m = len(w)
    ranking = tuple(ranking)
    if not _is_permutation(ranking, m):
        return f"kemeny ranking {ranking} is not a permutation"
    if kemeny_score(w, ranking) != score:
        return f"kemeny score {score} != recount {kemeny_score(w, ranking)}"
    bound = sum(min(w[a][b], w[b][a]) for a, b in combinations(range(m), 2))
    if score < bound:
        return f"kemeny score {score} below pairwise bound {bound}"
    for i, x in enumerate(ranking):
        delta = 0
        for y in ranking[i + 1 :]:  # move x below y
            delta += w[x][y] - w[y][x]
            if delta < 0:
                return f"moving {x} below {y} lowers the kemeny score"
        delta = 0
        for y in reversed(ranking[:i]):  # move x above y
            delta += w[y][x] - w[x][y]
            if delta < 0:
                return f"moving {x} above {y} lowers the kemeny score"
    if d_a != avg_disagreement(w, n):
        return f"d_a {d_a} != recount {avg_disagreement(w, n)}"
    return None


def check_dodgson(orders, w, c, score, lifts):
    """Apply the lifts to the voter types (first appearance order) and
    check that ``c`` becomes the Condorcet winner at the reported cost, and
    that the cost is at least the summed deficits."""
    n, m = len(orders), len(w)
    types = {}
    for order in orders:
        types[order] = types.get(order, 0) + 1
    if len(lifts) != len(types):
        return f"dodgson target {c}: {len(lifts)} lift rows for {len(types)} types"
    support = [w[c][y] for y in range(m)]
    cost = 0
    for (order, count), row in zip(types.items(), lifts):
        pos = order.index(c)
        if len(row) != pos + 1 or sum(row) != count or min(row) < 0:
            return f"dodgson target {c}: lift row {row} does not fit its type"
        for j, voters in enumerate(row):
            cost += j * voters
            for y in order[pos - j : pos]:
                support[y] += voters
    if cost != score:
        return f"dodgson target {c}: lifts cost {cost}, reported {score}"
    need = n // 2 + 1
    if any(support[y] < need for y in range(m) if y != c):
        return f"dodgson target {c}: lifts leave it short of a Condorcet win"
    deficits = sum(max(0, need - w[c][y]) for y in range(m) if y != c)
    if score < deficits:
        return f"dodgson target {c}: score {score} below deficit sum {deficits}"
    return None


def check_plan(orders, alpha, p, budget, cost, actions, result, action_cost):
    """Re-tally a bribery plan. ``actions`` are (voter, new order, cost,
    shift); ``action_cost(voter, old, new, shift)`` gives the price the
    flavor charges, or raises ValueError for a move the flavor forbids."""
    m = len(alpha)
    if cost > budget:
        return f"plan cost {cost} over budget {budget}"
    after = list(orders)
    total = 0
    for voter, new, charged, shift in actions:
        if not 0 <= voter < len(orders) or after[voter] != orders[voter]:
            return f"plan touches voter {voter} twice or out of range"
        if not _is_permutation(new, m):
            return f"plan gives voter {voter} a non-permutation"
        try:
            price = action_cost(voter, orders[voter], tuple(new), shift)
        except ValueError as err:
            return f"plan action on voter {voter}: {err}"
        if price != charged:
            return f"plan charges voter {voter} {charged}, price is {price}"
        after[voter] = tuple(new)
        total += price
    if total != cost:
        return f"plan actions sum to {total}, plan says {cost}"
    if tuple(result) != tuple(after):
        return "plan election differs from the orders its actions give"
    if not co_winner(positional_scores(after, alpha, m), p):
        return f"alternative {p} does not win after the plan"
    return None


def swap_cost(prices):
    """Price of turning one order into another by adjacent swaps: each
    discordant pair once."""

    def cost(voter, old, new, shift):
        pos = {a: i for i, a in enumerate(new)}
        return sum(
            prices[voter][min(a, b), max(a, b)]
            for a, b in combinations(old, 2)
            if pos[a] > pos[b]
        )

    return cost


def shift_cost(p, tariffs):
    def cost(voter, old, new, shift):
        i = old.index(p)
        if shift is None or not 0 < shift <= i:
            raise ValueError(f"shift {shift} out of range")
        moved = old[: i - shift] + (p,) + old[i - shift : i] + old[i + 1 :]
        if moved != new:
            raise ValueError("new order is not the old one with p shifted up")
        return tariffs[voter][shift]

    return cost


def rewrite_cost(prices):
    return lambda voter, old, new, shift: prices[voter]


def check_deletion(orders, d, p, k, deleted):
    """Re-tally d-approval after deleting ``deleted`` and check ``p`` wins."""
    n, m = len(orders), len(orders[0])
    if list(deleted) != sorted(set(deleted)) or len(deleted) > k:
        return f"deletion {deleted} is not a sorted set of at most {k} voters"
    if any(not 0 <= i < n for i in deleted) or len(deleted) >= n:
        return f"deletion {deleted} out of range"
    gone = set(deleted)
    kept = [o for i, o in enumerate(orders) if i not in gone]
    if not co_winner(approval_scores(kept, d, m), p):
        return f"alternative {p} does not win after deleting {deleted}"
    return None


def check_monotone(verdicts, k, witness):
    """Deletion control is monotone in ``k``: a witness of size ``s`` makes
    every ``k >= s`` a yes, and a no at ``k`` makes every smaller ``k`` a
    no. ``verdicts`` maps earlier ``k`` to their witness size or None."""
    for k2, size in verdicts.items():
        if witness is None and size is not None and size <= k:
            return f"no at k={k}, but a witness of size {size} exists"
        if witness is not None and size is None and k2 >= len(witness):
            return f"witness of size {len(witness)} at k={k}, but no at k={k2}"
    verdicts[k] = None if witness is None else len(witness)
    return None


def single_peaked(orders, axis):
    """Every voter's rank rises then falls along ``axis``."""
    for order in orders:
        rank = {a: i for i, a in enumerate(order)}
        seq = [rank[a] for a in axis]
        top = seq.index(0)
        if any(seq[i] <= seq[i + 1] for i in range(top)):
            return False
        if any(seq[i] >= seq[i + 1] for i in range(top, len(seq) - 1)):
            return False
    return True
