"""Cake cutting over [0, 1] with piecewise-polynomial value densities.

Arithmetic is exact rational end to end. Every density must integrate to
exactly 1 (inputs that do not are rejected, never rescaled) and be
nonnegative on each piece, which is verified symbolically: polynomial
degree is capped at 3 so the extrema of every piece can be sign-checked
exactly, using quadratic-surd arithmetic where the critical points are
irrational.

Cut queries return the smallest point capturing a requested value.
Degree <= 1 pieces are solved in closed form; a square root with a
non-square discriminant is the single place where an approximation enters,
and it is a rational approximation good to about 1e-18. Higher-degree
pieces fall back to monotone bisection until the captured measure is
within 1e-12 of the request. Fairness checks take an explicit tolerance:
use 0 when every endpoint is exact, the default 1e-9 otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt

from .errors import CapacityError

MAX_DEGREE = 3
MAX_PIECES = 10_000
MEASURE_TOLERANCE = Fraction(1, 10**12)
DEFAULT_EPS = Fraction(1, 10**9)
SQRT_SCALE = 10**18

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _poly_eval(coeffs, x):
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _mass(coeffs, a, b):
    """Exact integral of the polynomial over [a, b]: Horner on its antiderivative."""
    at_a = at_b = ZERO
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i] / (i + 1)
        at_a = (at_a + c) * a
        at_b = (at_b + c) * b
    return at_b - at_a


def _sign_surd(u, w, d):
    """Sign of u + w*sqrt(d) for rationals u, w and nonnegative rational d."""
    if w == 0 or d == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (w > 0) - (w < 0)
    if u > 0 and w > 0:
        return 1
    if u < 0 and w < 0:
        return -1
    lhs, rhs = u * u, w * w * d
    if u > 0:  # w < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)  # u < 0, w > 0


def _poly_nonneg_on(coeffs, lo, hi) -> bool:
    """Exact check that the polynomial stays >= 0 on [lo, hi] (degree <= 3)."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return True
    if _poly_eval(coeffs, lo) < 0 or _poly_eval(coeffs, hi) < 0:
        return False
    degree = len(coeffs) - 1
    if degree <= 1:
        return True
    if degree == 2:
        c0, c1, c2 = coeffs
        vertex = -c1 / (2 * c2)
        if lo < vertex < hi and _poly_eval(coeffs, vertex) < 0:
            return False
        return True
    # Cubic: critical points solve 3*c3*x^2 + 2*c2*x + c1 = 0.
    c0, c1, c2, c3 = coeffs
    a, b, c = 3 * c3, 2 * c2, c1
    disc = b * b - 4 * a * c
    if disc <= 0:
        return True
    # Remainder of the cubic modulo its derivative is linear: p*x + q.
    # At a critical point x*, f(x*) = p*x* + q.
    p = (2 * c) / 3 - (b * b) / (6 * a)
    q = c0 - (b * c) / (6 * a)
    for s in (1, -1):
        # Root r = (-b + s*sqrt(disc)) / (2a); decide lo < r < hi exactly.
        # r - lo has the sign of (-b - 2*a*lo + s*sqrt(disc)) * sign(2a).
        sign_2a = 1 if a > 0 else -1
        above_lo = _sign_surd(-b - 2 * a * lo, Fraction(s), disc) * sign_2a
        below_hi = _sign_surd(-b - 2 * a * hi, Fraction(s), disc) * sign_2a
        if above_lo > 0 and below_hi < 0:
            # f(r) = (p*(-b) + 2*a*q + p*s*sqrt(disc)) / (2a).
            value_sign = _sign_surd(2 * a * q - p * b, p * Fraction(s), disc) * sign_2a
            if value_sign < 0:
                return False
    return True


def _sqrt_fraction(value: Fraction) -> Fraction:
    """Exact square root when it is rational, else a ~1e-18 approximation."""
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return Fraction(isqrt(num * SQRT_SCALE * SQRT_SCALE // den), SQRT_SCALE)


class PiecewisePolyDensity:
    """A value density on [0, 1]: breakpointed polynomial pieces.

    ``pieces`` is a sequence of ``(lo, hi, coeffs)`` with rational bounds
    and coefficients, the intervals partitioning [0, 1] in order. The
    density must be nonnegative everywhere and integrate to exactly 1.
    More than ``MAX_PIECES`` pieces raise :class:`CapacityError`.
    """

    __slots__ = ("pieces", "_ends", "_before")

    def __init__(self, pieces):
        pieces = list(pieces)
        if len(pieces) > MAX_PIECES:
            raise CapacityError(f"density has {len(pieces)} pieces, limit {MAX_PIECES}")
        fixed = []
        for lo, hi, coeffs in pieces:
            lo, hi = _frac(lo), _frac(hi)
            coeffs = tuple(_frac(c) for c in coeffs)
            if not coeffs:
                coeffs = (ZERO,)
            if len(coeffs) - 1 > MAX_DEGREE:
                raise ValueError(f"piece degree {len(coeffs) - 1} above limit {MAX_DEGREE}")
            if not lo < hi:
                raise ValueError(f"empty piece [{lo}, {hi})")
            fixed.append((lo, hi, coeffs))
        if not fixed:
            raise ValueError("density needs at least one piece")
        if fixed[0][0] != 0 or fixed[-1][1] != 1:
            raise ValueError("pieces must cover [0, 1]")
        for (_, prev_hi, _), (lo, _, _) in zip(fixed, fixed[1:]):
            if prev_hi != lo:
                raise ValueError("pieces must be contiguous")
        for lo, hi, coeffs in fixed:
            if not _poly_nonneg_on(coeffs, lo, hi):
                raise ValueError(f"density negative somewhere on [{lo}, {hi})")
        before = tuple(accumulate((_mass(c, lo, hi) for lo, hi, c in fixed), initial=ZERO))
        if before[-1] != 1:
            raise ValueError(f"density integrates to {before[-1]}, expected exactly 1")
        object.__setattr__(self, "pieces", tuple(fixed))
        object.__setattr__(self, "_ends", tuple(hi for _, hi, _ in fixed))
        object.__setattr__(self, "_before", before)

    def __setattr__(self, name, value):
        raise AttributeError("PiecewisePolyDensity is immutable")

    @classmethod
    def uniform(cls):
        return cls([(0, 1, (1,))])

    @classmethod
    def normalized(cls, pieces):
        """Build after explicitly rescaling so the total integral is 1."""
        total = ZERO
        fixed = []
        for lo, hi, coeffs in pieces:
            lo, hi = _frac(lo), _frac(hi)
            coeffs = tuple(_frac(c) for c in coeffs)
            total += _mass(coeffs, lo, hi)
            fixed.append((lo, hi, coeffs))
        if total <= 0:
            raise ValueError("cannot normalize a density with nonpositive mass")
        return cls([(lo, hi, tuple(c / total for c in coeffs)) for lo, hi, coeffs in fixed])

    def _mass_to(self, x):
        """Exact integral over [0, x] for x in [0, 1]: one bisect, one piece."""
        i = bisect_left(self._ends, x)
        lo, hi, coeffs = self.pieces[i]
        if x == hi:
            return self._before[i + 1]
        if x == lo:
            return self._before[i]
        return self._before[i] + _mass(coeffs, lo, x)

    def measure_interval(self, a, b) -> Fraction:
        """Exact integral over [a, b] clipped to [0, 1]."""
        a, b = max(_frac(a), ZERO), min(_frac(b), ONE)
        if b <= a:
            return ZERO
        return self._mass_to(b) - self._mass_to(a)


def _sorted_disjoint(spans, message):
    """``spans`` sorted as a tuple; ``ValueError(message)`` if two interiors overlap."""
    spans = sorted(spans)
    for (_, prev_hi), (lo, _) in zip(spans, spans[1:]):
        if lo < prev_hi:
            raise ValueError(message)
    return tuple(spans)


class Piece:
    """A cake piece: finitely many interior-disjoint subintervals of [0, 1].

    Shared endpoints are allowed (cuts produce them); overlapping
    interiors are not.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        fixed = []
        for lo, hi in intervals:
            lo, hi = _frac(lo), _frac(hi)
            if not (0 <= lo <= hi <= 1):
                raise ValueError(f"interval [{lo}, {hi}] outside the cake")
            if lo < hi:
                fixed.append((lo, hi))
        object.__setattr__(self, "intervals", _sorted_disjoint(fixed, "piece intervals overlap"))

    def __setattr__(self, name, value):
        raise AttributeError("Piece is immutable")

    @classmethod
    def interval(cls, lo, hi):
        return cls([(lo, hi)])

    @classmethod
    def empty(cls):
        return cls([])

    def __eq__(self, other):
        if isinstance(other, Piece):
            return self.intervals == other.intervals
        return NotImplemented

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"Piece({[(str(a), str(b)) for a, b in self.intervals]})"


def measure(f: PiecewisePolyDensity, piece: Piece) -> Fraction:
    """Exact value of ``piece`` under density ``f``."""
    return sum((f.measure_interval(a, b) for a, b in piece.intervals), ZERO)


def _solve_linear_piece(coeffs, hi, start, want):
    """Smallest x in [start, hi] with integral of (c0 + c1 t) from start
    equal to ``want``; closed form, exact when the root is rational."""
    c0 = coeffs[0]
    c1 = coeffs[1] if len(coeffs) > 1 else ZERO
    if c1 == 0:
        return start + want / c0
    # (c1/2) x^2 + c0 x - (c0*start + (c1/2)*start^2 + want) = 0
    a = c1 / 2
    b = c0
    c = -(c0 * start + a * start * start + want)
    disc = b * b - 4 * a * c
    if disc < 0:
        disc = ZERO
    root = _sqrt_fraction(disc)
    candidates = sorted(((-b + root) / (2 * a), (-b - root) / (2 * a)))
    slack = Fraction(1, 10**15)
    for x in candidates:
        if start - slack <= x <= hi + slack:
            return min(max(x, start), hi)
    raise AssertionError("no quadratic root landed inside the piece")


def _bisect_piece(coeffs, hi, start, want):
    """Monotone bisection on the piece's mass from ``start`` for degree >= 2."""
    left, right = start, hi
    for _ in range(256):
        mid = (left + right) / 2
        got = _mass(coeffs, start, mid)
        if abs(got - want) <= MEASURE_TOLERANCE:
            return mid
        if got < want:
            left = mid
        else:
            right = mid
    return (left + right) / 2


def cut_query(f: PiecewisePolyDensity, a, v) -> Fraction:
    """Smallest x in [a, 1] with measure over [a, x] equal to ``v``.

    Zero-density plateaus resolve to their left end. ``v`` must not exceed
    the value of the remaining cake [a, 1]. A bisect over the prefix masses
    finds the one piece to solve in; a request past the total is refused.
    """
    a, v = _frac(a), _frac(v)
    if not 0 <= a <= 1:
        raise ValueError("cut start outside the cake")
    if v == 0:
        return a
    start_mass = f._mass_to(a)
    # The first piece whose end reaches the mass up to a plus v; it ends after a.
    i = bisect_left(f._before, start_mass + v) - 1
    if v < 0 or i == len(f.pieces):
        raise ValueError(f"requested value {v} outside [0, measure(a, 1)]")
    lo, hi, coeffs = f.pieces[i]
    left = max(lo, a)
    remaining = start_mass + v - f._before[i] if left == lo else v
    if not any(coeffs[2:]):
        return _solve_linear_piece(coeffs, hi, left, remaining)
    return _bisect_piece(coeffs, hi, left, remaining)


@dataclass(frozen=True)
class Division:
    """One piece per player plus the declared complexity bounds.

    The declared bounds promise at most ``gamma * n`` subintervals in
    total and at most ``delta`` per player.
    """

    pieces: tuple
    gamma: int = 1
    delta: int = 1

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def n(self):
        return len(self.pieces)

    def validate(self):
        """Check disjointness across players and the declared bounds."""
        spans = []
        for idx, piece in enumerate(self.pieces):
            if len(piece.intervals) > self.delta:
                raise ValueError(f"player {idx} holds more than delta intervals")
            spans.extend(piece.intervals)
        if len(spans) > self.gamma * self.n:
            raise ValueError("division exceeds gamma * n intervals")
        _sorted_disjoint(spans, "players' pieces overlap")
        return self


@dataclass(frozen=True)
class FairnessReport:
    """values[p][q] is player p's value for player q's piece."""

    values: tuple
    proportional: bool
    envy_free: bool
    equitable: bool
    equal_valued: bool


def check_fairness(division: Division, densities, eps: Fraction = DEFAULT_EPS) -> FairnessReport:
    """Evaluate proportionality, envy-freeness, and equitability.

    ``equitable`` follows the exact-share reading (everyone values their
    own piece at 1/n); ``equal_valued`` reports the common alternative
    reading (all own-piece values agree). Use ``eps=0`` when all endpoints
    are exact rationals.
    """
    densities = list(densities)
    if len(densities) != division.n:
        raise ValueError("one density per player required")
    division.validate()
    eps = _frac(eps)
    n = division.n
    values = tuple(
        tuple(measure(f, piece) for piece in division.pieces) for f in densities
    )
    share = Fraction(1, n)
    proportional = all(values[p][p] >= share - eps for p in range(n))
    envy_free = all(
        values[p][p] >= values[p][q] - eps for p in range(n) for q in range(n)
    )
    equitable = all(abs(values[p][p] - share) <= eps for p in range(n))
    equal_valued = all(
        abs(values[p][p] - values[q][q]) <= eps for p in range(n) for q in range(n)
    )
    return FairnessReport(values, proportional, envy_free, equitable, equal_valued)


def welfare(division: Division, densities, kind: str) -> Fraction:
    """Utilitarian (sum) or egalitarian (minimum) welfare of own-piece values."""
    densities = list(densities)
    if len(densities) != division.n:
        raise ValueError("one density per player required")
    own = [measure(f, piece) for f, piece in zip(densities, division.pieces)]
    if kind == "utilitarian":
        return sum(own, ZERO)
    if kind == "egalitarian":
        return min(own)
    raise ValueError(f"unknown welfare kind {kind!r}")


def cut_and_choose(densities) -> Division:
    """Two players: the first cuts at their halfway point, the second takes
    the half they value more (ties go left). Envy-free up to tolerance."""
    densities = list(densities)
    if len(densities) != 2:
        raise ValueError("cut and choose needs exactly two players")
    cutter, chooser = densities
    x = cut_query(cutter, ZERO, Fraction(1, 2))
    left, right = Piece.interval(0, x), Piece.interval(x, 1)
    if measure(chooser, left) >= measure(chooser, right):
        return Division((right, left), gamma=1, delta=1)
    return Division((left, right), gamma=1, delta=1)


def last_diminisher(densities) -> Division:
    """Proportional protocol for n >= 2 players, single interval each.

    The first active player cuts a candidate piece worth 1/n to them from
    the left edge; every later active player who values it above 1/n trims
    it down to exactly 1/n. The last to trim (or the cutter) exits with
    the piece; the final player takes the leftover.
    """
    densities = list(densities)
    n = len(densities)
    if n < 2:
        raise ValueError("last diminisher needs at least two players")
    share = Fraction(1, n)
    assigned = [None] * n
    active = list(range(n))
    a = ZERO
    while len(active) > 1:
        cutter = active[0]
        want = min(share, densities[cutter].measure_interval(a, 1))
        x = cut_query(densities[cutter], a, want)
        holder = cutter
        for p in active[1:]:
            if densities[p].measure_interval(a, x) > share:
                x = cut_query(densities[p], a, share)
                holder = p
        assigned[holder] = Piece.interval(a, x)
        active.remove(holder)
        a = x
    assigned[active[0]] = Piece.interval(a, 1)
    return Division(tuple(assigned), gamma=1, delta=1)
