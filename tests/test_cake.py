import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comsoc.cake import (
    DEFAULT_EPS,
    MAX_PIECES,
    Division,
    Piece,
    PiecewisePolyDensity,
    check_fairness,
    cut_and_choose,
    cut_query,
    last_diminisher,
    measure,
    welfare,
)
from comsoc.cake import _mass, _solve_linear_piece
from comsoc.errors import CapacityError
from comsoc.fileio import parse_densities

F = Fraction


def random_constant_density(rng: random.Random, max_pieces=4, grid=8):
    """Piecewise-constant density on a 1/grid lattice, exactly normalized."""
    cuts = sorted(rng.sample(range(1, grid), rng.randint(0, max_pieces - 1)))
    bounds = [F(0)] + [F(c, grid) for c in cuts] + [F(1)]
    weights = [rng.randint(0, 5) for _ in range(len(bounds) - 1)]
    if all(w == 0 for w in weights):
        weights[rng.randrange(len(weights))] = 1
    pieces = [
        (lo, hi, (F(w),))
        for lo, hi, w in zip(bounds, bounds[1:], weights)
    ]
    return PiecewisePolyDensity.normalized(pieces)


def random_linear_density(rng: random.Random, max_pieces=3, grid=6):
    """Piecewise-linear nonnegative density, exactly normalized."""
    cuts = sorted(rng.sample(range(1, grid), rng.randint(0, max_pieces - 1)))
    bounds = [F(0)] + [F(c, grid) for c in cuts] + [F(1)]
    pieces = []
    mass = F(0)
    for lo, hi in zip(bounds, bounds[1:]):
        y0, y1 = rng.randint(0, 4), rng.randint(0, 4)
        # Chord from (lo, y0) to (hi, y1): nonnegative by construction.
        slope = F(y1 - y0) / (hi - lo)
        c0 = F(y0) - slope * lo
        pieces.append((lo, hi, (c0, slope)))
        mass += (F(y0) + F(y1)) / 2 * (hi - lo)
    if mass == 0:
        return PiecewisePolyDensity.uniform()
    return PiecewisePolyDensity.normalized(pieces)


def random_poly_density(rng: random.Random, max_pieces=6, grid=24):
    """Pieces of degree 0-3, exactly normalized: nonnegative coefficients,
    or a scaled square (t - r)^2 that touches zero inside the cake."""
    cuts = sorted(rng.sample(range(1, grid), rng.randint(0, max_pieces - 1)))
    bounds = [F(0)] + [F(c, grid) for c in cuts] + [F(1)]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        degree = rng.randint(0, 3)
        if degree == 2 and rng.random() < 0.5:
            r, c = F(rng.randint(0, grid), grid), F(rng.randint(1, 5))
            coeffs = (c * r * r, -2 * c * r, c)
        else:
            coeffs = tuple(F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(degree + 1))
        pieces.append((lo, hi, coeffs if any(coeffs) else (F(1),)))
    return PiecewisePolyDensity.normalized(pieces)


@st.composite
def poly_densities(draw, grid=24):
    cuts = draw(st.lists(st.integers(1, grid - 1), max_size=4, unique=True))
    bounds = [F(0)] + [F(c, grid) for c in sorted(cuts)] + [F(1)]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        coeffs = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
        pieces.append((lo, hi, tuple(F(c) for c in coeffs) if any(coeffs) else (F(1),)))
    return PiecewisePolyDensity.normalized(pieces)


def plain_measure_interval(f, a, b):
    """Oracle: the measure that walks every piece and integrates its overlap
    with [a, b], in place of the prefix masses."""
    a, b = max(F(a), F(0)), min(F(b), F(1))
    if b <= a:
        return F(0)
    total = F(0)
    for lo, hi, coeffs in f.pieces:
        if lo < b and a < hi:
            total += _mass(coeffs, max(lo, a), min(hi, b))
    return total


def plain_cut_query(f, a, v, tolerance=F(1, 10**12)):
    """Oracle: the cut query that takes every mass, in the walk and in the
    bisection, from a scan of the whole density."""
    a, v = F(a), F(v)
    if not 0 <= a <= 1:
        raise ValueError("cut start outside the cake")
    if v < 0 or v > plain_measure_interval(f, a, 1):
        raise ValueError(f"requested value {v} outside [0, measure(a, 1)]")
    if v == 0:
        return a
    remaining = v
    for lo, hi, coeffs in f.pieces:
        left = max(lo, a)
        if left >= hi:
            continue
        mass = plain_measure_interval(f, left, hi)
        if mass < remaining:
            remaining -= mass
            continue
        degree = len(coeffs) - 1
        while degree > 0 and coeffs[degree] == 0:
            degree -= 1
        if degree <= 1:
            return _solve_linear_piece(coeffs, hi, left, remaining)
        low, high = left, hi
        for _ in range(256):
            mid = (low + high) / 2
            got = plain_measure_interval(f, left, mid)
            if abs(got - remaining) <= tolerance:
                return mid
            if got < remaining:
                low = mid
            else:
                high = mid
        return (low + high) / 2
    return F(1)


class TestDensityValidation:
    def test_uniform_is_valid(self):
        f = PiecewisePolyDensity.uniform()
        assert f.measure_interval(0, 1) == 1

    def test_not_normalized_rejected(self):
        with pytest.raises(ValueError, match="integrates"):
            PiecewisePolyDensity([(0, 1, (F(2),))])

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            PiecewisePolyDensity([(0, F(1, 3), (F(3, 2),)), (F(1, 2), 1, (F(1),))])

    def test_not_covering_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            PiecewisePolyDensity([(0, F(1, 2), (F(2),))])

    def test_negative_density_rejected(self):
        # f(t) = 3 - 4t integrates to 1 but is negative at the right end.
        with pytest.raises(ValueError, match="negative"):
            PiecewisePolyDensity([(0, 1, (F(3), F(-4)))])
        # Parabola dipping below zero mid-piece, endpoints positive.
        with pytest.raises(ValueError, match="negative"):
            PiecewisePolyDensity.normalized([(0, 1, (F(1), F(-5), F(5)))])

    def test_cubic_negative_dip_rejected(self):
        # f(t) = (t - 1/2)^3 + small: dips below zero left of 1/2.
        with pytest.raises(ValueError, match="negative"):
            PiecewisePolyDensity.normalized(
                [(0, 1, (F(-1, 8) + F(1, 1000), F(3, 4), F(-3, 2), F(1)))]
            )

    def test_cubic_touching_zero_accepted(self):
        # f(t) = (t - 1/2)^2 * t: nonnegative, irrational critical point.
        raw = (F(1, 4), F(-1), F(1))  # (t - 1/2)^2
        cubic = (F(0), F(1, 4), F(-1), F(1))
        f = PiecewisePolyDensity.normalized([(0, 1, cubic)])
        assert f.measure_interval(0, 1) == 1

    def test_piece_cap(self):
        def pieces(k):
            return [(F(i, k), F(i + 1, k), (F(1),)) for i in range(k)]

        assert len(PiecewisePolyDensity(pieces(MAX_PIECES)).pieces) == MAX_PIECES
        with pytest.raises(CapacityError, match=f"limit {MAX_PIECES}"):
            PiecewisePolyDensity(pieces(MAX_PIECES + 1))

    def test_piece_cap_in_parser_before_numbers(self):
        # The extra piece line is malformed: the count is checked first.
        lines = ["player 0"] + ["piece 0 1 1"] * MAX_PIECES + ["piece x y z"]
        with pytest.raises(CapacityError, match=f"more than {MAX_PIECES} pieces"):
            parse_densities("\n".join(lines))
        # Each player has its own allowance, so these blocks reach the
        # density checks.
        block = "\n".join(["piece 0 1 1"] * MAX_PIECES)
        with pytest.raises(ValueError, match="contiguous"):
            parse_densities(f"player 0\n{block}\nplayer 1\n{block}\n")

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            PiecewisePolyDensity([(0, 1, (F(1), F(0), F(0), F(0), F(1)))])

    def test_positivity_check_agrees_with_dense_sampling(self):
        from comsoc.cake import _poly_nonneg_on

        def numeric_min(coeffs, lo, hi, steps=2000):
            lo_f, hi_f = float(lo), float(hi)
            cs = [float(c) for c in coeffs]
            return min(
                sum(c * ((lo_f + (hi_f - lo_f) * i / steps) ** k) for k, c in enumerate(cs))
                for i in range(steps + 1)
            )

        rng = random.Random(31337)
        for trial in range(500):
            deg = rng.randint(0, 3)
            coeffs = tuple(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(deg + 1))
            lo = F(rng.randint(0, 3), 4)
            hi = lo + F(rng.randint(1, 4), 4)
            approx = numeric_min(coeffs, lo, hi)
            if abs(approx) < 1e-6:
                continue  # too close to zero for sampling to adjudicate
            assert _poly_nonneg_on(coeffs, lo, hi) == (approx > 0), f"trial {trial}"


class TestMeasure:
    def test_full_cake_is_one(self):
        rng = random.Random(50)
        for _ in range(20):
            f = random_linear_density(rng)
            assert measure(f, Piece.interval(0, 1)) == 1

    def test_empty_piece_is_zero(self):
        f = PiecewisePolyDensity.uniform()
        assert measure(f, Piece.empty()) == 0

    def test_uniform_union_piece(self):
        f = PiecewisePolyDensity.uniform()
        piece = Piece([(0, F(1, 4)), (F(1, 2), F(3, 4))])
        assert measure(f, piece) == F(1, 2)

    def test_additivity_on_random_pieces(self):
        rng = random.Random(51)
        for _ in range(30):
            f = random_linear_density(rng)
            cuts = sorted(F(rng.randint(0, 12), 12) for _ in range(4))
            a, b, c, d = cuts
            left = Piece([(a, b)])
            right = Piece([(c, d)])
            both = Piece([(a, b), (c, d)]) if b <= c else None
            if both is not None:
                assert measure(f, both) == measure(f, left) + measure(f, right)

    def test_matches_plain_measure_interval(self):
        # Prefix masses against the walk over every piece: degrees 0-3,
        # zero-density plateaus, every piece end, points inside pieces and
        # bounds past the cake's ends.
        rng = random.Random(60)
        for k in range(60):
            f = random_poly_density(rng) if k % 2 else random_constant_density(rng)
            points = [F(-1, 2), F(3, 2)] + [lo for lo, _, _ in f.pieces] + [F(1)]
            points += [F(rng.randint(0, 96), 96) for _ in range(4)]
            for a in points:
                for b in points:
                    assert f.measure_interval(a, b) == plain_measure_interval(f, a, b)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Piece([(0, F(1, 2)), (F(1, 4), 1)])


class TestCutQuery:
    def test_zero_value_returns_start(self):
        f = PiecewisePolyDensity.uniform()
        assert cut_query(f, F(1, 3), 0) == F(1, 3)

    def test_uniform_third(self):
        f = PiecewisePolyDensity.uniform()
        assert cut_query(f, 0, F(1, 3)) == F(1, 3)

    def test_linear_density_closed_form(self):
        # Density 2t on [0, 1]: cumulative t^2, so value 1/4 cuts at 1/2.
        f = PiecewisePolyDensity([(0, 1, (F(0), F(2)))])
        assert cut_query(f, 0, F(1, 4)) == F(1, 2)

    def test_out_of_range_rejected(self):
        f = PiecewisePolyDensity.uniform()
        with pytest.raises(ValueError):
            cut_query(f, F(1, 2), F(3, 4))
        with pytest.raises(ValueError):
            cut_query(f, 0, F(-1, 2))
        g = random_poly_density(random.Random(59))
        for a in (F(0), F(1, 3), F(1)):
            with pytest.raises(ValueError, match="outside"):
                cut_query(g, a, g.measure_interval(a, 1) + F(1, 10**30))

    def test_zero_density_plateau_resolves_left(self):
        f = PiecewisePolyDensity(
            [(0, F(1, 4), (F(2),)), (F(1, 4), F(3, 4), (F(0),)), (F(3, 4), 1, (F(2),))]
        )
        assert cut_query(f, 0, F(1, 2)) == F(1, 4)

    def test_round_trip_within_tolerance(self):
        rng = random.Random(52)
        tol = F(1, 10**12)
        for _ in range(40):
            f = random_linear_density(rng)
            a = F(rng.randint(0, 3), 4)
            available = f.measure_interval(a, 1)
            v = available * F(rng.randint(0, 8), 8)
            x = cut_query(f, a, v)
            assert abs(f.measure_interval(a, x) - v) <= tol

    def test_monotone_in_value(self):
        rng = random.Random(53)
        for _ in range(20):
            f = random_linear_density(rng)
            values = sorted(F(rng.randint(0, 16), 16) for _ in range(2))
            xs = [cut_query(f, 0, v) for v in values]
            assert xs[0] <= xs[1]

    def test_matches_plain_query_inside_later_pieces(self):
        rng = random.Random(58)
        checked = 0
        for _ in range(60):
            f = random_poly_density(rng)
            for lo, hi, _ in f.pieces[1:]:
                a = lo + (hi - lo) * F(rng.randint(1, 7), 8)
                v = f.measure_interval(a, 1) * F(rng.randint(1, 16), 16)
                assert cut_query(f, a, v) == plain_cut_query(f, a, v)
                checked += 1
        assert checked > 100

    def test_matches_plain_query_from_every_piece_end(self):
        # Every piece end as the start, and values that end exactly at a
        # piece end, so the lookup's boundary and zero-density plateaus
        # (the smallest x) are both exercised.
        rng = random.Random(61)
        checked = 0
        for k in range(30):
            f = random_poly_density(rng) if k % 2 else random_constant_density(rng)
            starts = [F(0)] + [hi for _, hi, _ in f.pieces]
            for a in starts:
                available = plain_measure_interval(f, a, 1)
                values = {available * F(j, 8) for j in range(9)}
                values |= {plain_measure_interval(f, a, hi) for _, hi, _ in f.pieces if hi > a}
                for v in values:
                    assert cut_query(f, a, v) == plain_cut_query(f, a, v)
                    checked += 1
                with pytest.raises(ValueError, match="outside"):
                    cut_query(f, a, available + F(1, 10**30))
        assert checked > 500

    @given(poly_densities(), st.integers(0, 95), st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_query_property(self, f, a_num, v_num):
        a = F(a_num, 96)
        v = f.measure_interval(a, 1) * F(v_num, 16)
        assert cut_query(f, a, v) == plain_cut_query(f, a, v)

    def test_quadratic_piece_bisection(self):
        # Density 3t^2: cumulative t^3; cutting 1/8 lands near 1/2.
        f = PiecewisePolyDensity([(0, 1, (F(0), F(0), F(3)))])
        x = cut_query(f, 0, F(1, 8))
        assert abs(f.measure_interval(0, x) - F(1, 8)) <= F(1, 10**12)
        assert abs(x - F(1, 2)) < F(1, 10**6)


class TestFairnessAndWelfare:
    def test_single_player_whole_cake(self):
        f = PiecewisePolyDensity.uniform()
        division = Division((Piece.interval(0, 1),))
        report = check_fairness(division, [f], eps=0)
        assert report.proportional and report.envy_free and report.equitable

    def test_uniform_equal_blocks(self):
        n = 4
        densities = [PiecewisePolyDensity.uniform() for _ in range(n)]
        division = Division(
            tuple(Piece.interval(F(i, n), F(i + 1, n)) for i in range(n))
        )
        report = check_fairness(division, densities, eps=0)
        assert report.proportional and report.envy_free
        assert report.equitable and report.equal_valued

    def test_whole_cake_to_one_of_two(self):
        densities = [PiecewisePolyDensity.uniform() for _ in range(2)]
        division = Division((Piece.interval(0, 1), Piece.empty()))
        report = check_fairness(division, densities, eps=0)
        assert not report.proportional
        assert not report.envy_free
        assert welfare(division, densities, "utilitarian") == 1
        assert welfare(division, densities, "egalitarian") == 0

    def test_equitable_exact_share_vs_equal_values(self):
        # Both players value their own piece 1/2 under their own density,
        # one of them unevenly: equitable in both readings here.
        f0 = PiecewisePolyDensity.uniform()
        f1 = PiecewisePolyDensity.normalized([(0, F(1, 2), (F(3),)), (F(1, 2), 1, (F(1),))])
        division = Division((Piece.interval(F(1, 4), F(3, 4)), Piece.empty()))
        report = check_fairness(division, [f0, f1], eps=0)
        assert not report.equitable  # player 1 gets 0, not 1/2
        assert not report.equal_valued

    def test_overlapping_division_rejected(self):
        f = PiecewisePolyDensity.uniform()
        division = Division((Piece.interval(0, F(2, 3)), Piece.interval(F(1, 3), 1)))
        with pytest.raises(ValueError, match="overlap"):
            check_fairness(division, [f, f])

    def test_proportional_implies_egalitarian_floor(self):
        rng = random.Random(54)
        for _ in range(10):
            densities = [random_constant_density(rng) for _ in range(3)]
            division = last_diminisher(densities)
            report = check_fairness(division, densities, eps=DEFAULT_EPS)
            if report.proportional:
                assert welfare(division, densities, "egalitarian") >= F(1, 3) - DEFAULT_EPS


class TestProtocols:
    def test_cut_and_choose_identical_uniform(self):
        densities = [PiecewisePolyDensity.uniform(), PiecewisePolyDensity.uniform()]
        division = cut_and_choose(densities)
        assert division.pieces[1] == Piece.interval(0, F(1, 2))  # tie goes left
        assert division.pieces[0] == Piece.interval(F(1, 2), 1)
        report = check_fairness(division, densities, eps=0)
        assert report.envy_free and report.proportional and report.equitable

    def test_cut_and_choose_envy_free_on_random_profiles(self):
        rng = random.Random(55)
        for trial in range(60):
            densities = [
                random_constant_density(rng) if trial % 2 else random_linear_density(rng)
                for _ in range(2)
            ]
            division = cut_and_choose(densities)
            division.validate()
            report = check_fairness(division, densities, eps=DEFAULT_EPS)
            assert report.envy_free, f"trial {trial}"
            assert report.proportional, f"trial {trial}"
            chooser_value = report.values[1][1]
            assert chooser_value >= F(1, 2) - DEFAULT_EPS, f"trial {trial}"

    def test_cut_and_choose_needs_two_players(self):
        with pytest.raises(ValueError):
            cut_and_choose([PiecewisePolyDensity.uniform()])

    def test_last_diminisher_identical_uniform_three(self):
        densities = [PiecewisePolyDensity.uniform() for _ in range(3)]
        division = last_diminisher(densities)
        assert division.pieces[0] == Piece.interval(0, F(1, 3))
        assert division.pieces[1] == Piece.interval(F(1, 3), F(2, 3))
        assert division.pieces[2] == Piece.interval(F(2, 3), 1)
        report = check_fairness(division, densities, eps=0)
        assert report.proportional and report.equitable

    def test_last_diminisher_proportional_on_random_profiles(self):
        rng = random.Random(56)
        for trial in range(40):
            n = rng.randint(2, 5)
            densities = [
                random_constant_density(rng) if rng.random() < 0.5 else random_linear_density(rng)
                for _ in range(n)
            ]
            division = last_diminisher(densities)
            division.validate()
            report = check_fairness(division, densities, eps=DEFAULT_EPS)
            assert report.proportional, f"trial {trial}"

    def test_many_pieces_cut_in_one_walk(self):
        # 4,000 pieces: a cut that rescans the density for every piece it
        # walks is quadratic in the piece count and takes tens of seconds.
        n = 4000
        grid = [(F(i, n), F(i + 1, n)) for i in range(n)]
        uniform = PiecewisePolyDensity([(lo, hi, (F(1),)) for lo, hi in grid])
        tent = PiecewisePolyDensity(
            [(lo, hi, (F(0), F(4)) if hi <= F(1, 2) else (F(4), F(-4))) for lo, hi in grid]
        )
        for f in (uniform, tent):
            start = time.perf_counter()
            division = cut_and_choose([f, f])
            assert time.perf_counter() - start < 3
            assert division.pieces[1] == Piece.interval(0, F(1, 2))
            start = time.perf_counter()
            division = last_diminisher([f, f, f])
            assert time.perf_counter() - start < 3
            report = check_fairness(division, [f, f, f], eps=DEFAULT_EPS)
            assert report.proportional and report.envy_free
            if f is uniform:
                assert [p.intervals for p in division.pieces] == [
                    ((0, F(1, 3)),), ((F(1, 3), F(2, 3)),), ((F(2, 3), 1),)
                ]

    def test_last_diminisher_single_intervals(self):
        rng = random.Random(57)
        for _ in range(10):
            densities = [random_constant_density(rng) for _ in range(4)]
            division = last_diminisher(densities)
            assert all(len(p.intervals) <= 1 for p in division.pieces)
