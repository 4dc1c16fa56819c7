"""Core election model: preference orders, pairwise tallies, scoring rules.

Alternatives are dense integer ids ``0..m-1``. Human-readable labels, when
present, live on the :class:`Election` and matter only at the I/O boundary;
every algorithm works on ids. Scores and tallies are plain Python integers,
so there is no overflow and no floating point in any election computation.

All objects are immutable after construction and safe to share between
threads; the module-level operations are pure functions. A
:class:`PreferenceOrder` is its tuple of ids. The one cache is an
:class:`Election`'s majority matrix, filled on first use, so each election
is tallied once. Every fill computes and writes the same value, so a race
between threads only repeats work; the cache takes no part in equality or
hashing.
:meth:`Election.types` is the one grouping of voters by preference order,
and the majority tally and the scoring winners run over it; :func:`_tally`
over such ``(order, count)`` rows is the one sum of positional points.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect
from collections import Counter
from dataclasses import dataclass


class PreferenceOrder(tuple):
    """A voter's complete strict ranking of the alternatives.

    The order is the tuple of its alternative ids, most-preferred first,
    checked on construction to be a permutation of ``0..m-1``. It compares,
    hashes and sorts as that plain tuple, so ``PreferenceOrder((1, 0)) ==
    (1, 0)``, and equality, hashing and grouping run at tuple speed.

    Parameters
    ----------
    ranking : iterable of int
        Alternative ids, most-preferred first. Must be a permutation of
        ``0..m-1``.
    """

    __slots__ = ()

    def __new__(cls, ranking):
        self = tuple.__new__(cls, ranking)
        if sorted(self) != list(range(len(self))):
            raise ValueError(f"ranking {tuple(self)!r} is not a permutation of 0..{len(self) - 1}")
        return self

    @property
    def ranking(self):
        """The order itself, as the tuple of ids most-preferred first."""
        return self

    @property
    def m(self):
        return len(self)

    def rank_of(self, alt):
        """1-based position of ``alt``; the top choice has rank 1."""
        return self.index(alt) + 1

    def prefers(self, a, b):
        """True if this voter ranks ``a`` above ``b``."""
        return self.index(a) < self.index(b)

    def top(self, d=1):
        """The ``d`` most-preferred alternatives as a frozenset."""
        return frozenset(self[:d])

    def __repr__(self):
        return f"PreferenceOrder({list(self)})"


class Election:
    """An election: ``n`` complete preference orders over ``m`` alternatives.

    The voter list is ordered and the order is significant (single-crossing
    tests depend on it).

    Parameters
    ----------
    voters : iterable
        Preference orders; raw id sequences are accepted and converted.
    labels : iterable of str, optional
        Distinct display names for the alternatives, id order.
    """

    __slots__ = ("voters", "labels", "_majority")

    def __init__(self, voters, labels=None):
        voters = tuple(
            v if isinstance(v, PreferenceOrder) else PreferenceOrder(v) for v in voters
        )
        if not voters:
            raise ValueError("an election needs at least one voter")
        m = voters[0].m
        if m == 0:
            raise ValueError("an election needs at least one alternative")
        for i, v in enumerate(voters):
            if v.m != m:
                raise ValueError(f"voter {i} ranks {v.m} alternatives, expected {m}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != m:
                raise ValueError(f"{len(labels)} labels for {m} alternatives")
            if len(set(labels)) != m:
                raise ValueError("labels must be distinct")
        object.__setattr__(self, "voters", voters)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("Election is immutable")

    @property
    def m(self):
        return self.voters[0].m

    @property
    def n(self):
        return len(self.voters)

    def alternatives(self):
        return range(self.m)

    def types(self):
        """Distinct orders with their voter counts, as ``(order, count)``
        pairs in order of first appearance; one O(n) pass per call."""
        return tuple(Counter(self.voters).items())

    def label_of(self, alt):
        if self.labels is not None:
            return self.labels[alt]
        return f"a{alt + 1}"

    def __eq__(self, other):
        if isinstance(other, Election):
            return self.voters == other.voters and self.labels == other.labels
        return NotImplemented

    def __hash__(self):
        return hash((self.voters, self.labels))

    def __repr__(self):
        return f"Election(m={self.m}, n={self.n})"


@dataclass(frozen=True)
class MajorityMatrix:
    """Pairwise tallies: ``wins[c][d]`` voters rank ``c`` above ``d``."""

    wins: tuple
    n: int

    def __getitem__(self, c):
        return self.wins[c]

    def beats(self, c, d):
        """True if ``c`` wins the head-to-head contest against ``d`` strictly."""
        return self.wins[c][d] > self.wins[d][c]


# Native formats by item size; ``to_bytes`` in native order yields field 0
# first on little-endian machines and last on big-endian ones.
_FIELD_FORMAT = {struct.calcsize(f): f for f in "QIHB"}
_FIELD_STEP = 1 if sys.byteorder == "little" else -1


def _packed_fields(m, n):
    """Units and unpacker for packed rows of ``m`` counts, each at most ``n``.

    A row is one int with a fixed-width field per alternative; ``unit[d]``
    is 1 in field ``d``, so adding ``unit[d] * k`` adds ``k`` to that count.
    The width is the smallest of 1, 2, 4 or 8 bytes that holds ``n``, and
    ``unpack(row)`` reads the ``m`` counts back in C as a memoryview.
    """
    size = next(b for b in (1, 2, 4, 8) if n < 1 << (8 * b))
    fmt, length = _FIELD_FORMAT[size], m * size

    def unpack(row):
        return memoryview(row.to_bytes(length, sys.byteorder)).cast(fmt)[::_FIELD_STEP]

    return [1 << (8 * size * d) for d in range(m)], unpack


def majority_matrix(e: Election) -> MajorityMatrix:
    """Tally all head-to-head contests of ``e`` over its voter types.

    Each alternative's row of the matrix is one packed int (see
    :func:`_packed_fields`), and each voter type adds, to the row of every
    alternative, the mask of the alternatives it ranks below, times its
    count: O(types * m) big-int additions rather than one per pair.
    The matrix is stored on ``e``, so later calls return it untallied.
    For distinct ``c, d`` the complementarity ``wins[c][d] + wins[d][c] == n``
    holds; the diagonal is zero.
    """
    try:
        return e._majority
    except AttributeError:
        pass
    m = e.m
    unit, unpack = _packed_fields(m, e.n)
    rows = [0] * m
    for order, count in e.types():
        # Field d of rows[c] counts the voters ranking c above d, so no field
        # exceeds n and no addition carries into the next field.
        below = 0
        for alt in reversed(order):
            rows[alt] += below if count == 1 else below * count
            below |= unit[alt]
    matrix = MajorityMatrix(tuple(tuple(unpack(row)) for row in rows), e.n)
    object.__setattr__(e, "_majority", matrix)
    return matrix


def condorcet_winner(e: Election):
    """The alternative beating every other in strict pairwise majority.

    Returns ``None`` when no such alternative exists. Uniqueness is a
    theorem; the scan checks every candidate and would surface a violation
    as the first match, so the first match is returned.
    """
    wins = majority_matrix(e)
    for c in e.alternatives():
        if all(wins.beats(c, d) for d in e.alternatives() if d != c):
            return c
    return None


@dataclass(frozen=True)
class ScoringVector:
    """A scoring protocol ``(alpha_1, ..., alpha_m)``, nonincreasing, >= 0."""

    alpha: tuple

    def __post_init__(self):
        alpha = tuple(int(a) for a in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not alpha:
            raise ValueError("empty scoring vector")
        if any(a < 0 for a in alpha):
            raise ValueError("scoring vector entries must be nonnegative")
        if any(alpha[i] < alpha[i + 1] for i in range(len(alpha) - 1)):
            raise ValueError("scoring vector must be nonincreasing")

    def __len__(self):
        return len(self.alpha)

    @classmethod
    def plurality(cls, m):
        return cls((1,) + (0,) * (m - 1))

    @classmethod
    def borda(cls, m):
        return cls(tuple(range(m - 1, -1, -1)))

    @classmethod
    def d_approval(cls, m, d):
        if not 1 <= d <= m:
            raise ValueError(f"approval depth {d} out of range for m={m}")
        return cls((1,) * d + (0,) * (m - d))


@dataclass(frozen=True)
class ScoringResult:
    """Winner set (ascending ids) and the full per-alternative score map."""

    winners: tuple
    scores: tuple


def _tally(rows, alpha, m):
    """Points per alternative under ``alpha`` over ``rows``, the ``(order,
    count)`` pairs of :meth:`Election.types`; a lone order is ``(order, 1)``.

    ``alpha`` is nonincreasing, so its zero tail is dropped once and only
    the scoring prefix of each order is visited, its points times its count;
    a vector shorter than ``m`` scores the positions past its end as zero.
    """
    depth = len(alpha)
    while depth and not alpha[depth - 1]:
        depth -= 1
    head = alpha[:depth]
    scores = [0] * m
    for order, count in rows:
        for alt, points in zip(order, head):
            scores[alt] += points * count
    return scores


def _wins(scores, p, unique):
    """Whether ``p`` has a maximum score; the only one under ``unique``."""
    best = max(scores)
    if scores[p] < best:
        return False
    return not unique or scores.count(best) == 1


def scoring_winners(e: Election, vector: ScoringVector) -> ScoringResult:
    """All alternatives with maximum total score under ``vector``.

    Ties are kept: the result is the co-winner set. Unique-winner semantics
    are a consumer decision, see :func:`is_winner`.
    """
    if len(vector) != e.m:
        raise ValueError(f"scoring vector has length {len(vector)}, election has m={e.m}")
    scores = _tally(e.types(), vector.alpha, e.m)
    best = max(scores)
    winners = tuple(c for c in e.alternatives() if scores[c] == best)
    return ScoringResult(winners, tuple(scores))


def is_winner(e: Election, vector: ScoringVector, p, unique=False) -> bool:
    """Whether ``p`` wins under ``vector``; co-winner unless ``unique``."""
    if not 0 <= p < e.m:
        raise ValueError(f"alternative {p} is not an id for m={e.m}")
    return _wins(scoring_winners(e, vector).scores, p, unique)


def kendall_tau(p, q) -> int:
    """Number of unordered pairs ranked oppositely by ``p`` and ``q``.

    Symmetric, zero exactly on equal orders, and at most ``m(m-1)/2``
    (attained by reversed orders).
    """
    if not isinstance(p, PreferenceOrder):
        p = PreferenceOrder(p)
    if not isinstance(q, PreferenceOrder):
        q = PreferenceOrder(q)
    if p.m != q.m:
        raise ValueError(f"orders rank {p.m} and {q.m} alternatives")
    # Inversions of p's ranking as seen through q's positions.
    seq = list(map(q.index, p))
    inversions = 0
    sorted_so_far = []
    for i, u in enumerate(seq):
        j = bisect(sorted_so_far, u)
        inversions += i - j
        sorted_so_far.insert(j, u)
    return inversions


def sum_kendall_tau(e: Election, order) -> int:
    """Total Kendall tau distance from ``order`` to every voter of ``e``."""
    if not isinstance(order, PreferenceOrder):
        order = PreferenceOrder(order)
    return sum(kendall_tau(order, v) for v in e.voters)
