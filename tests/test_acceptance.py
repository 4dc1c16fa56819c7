"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations

from comsoc.bribery import (
    BriberyBudget,
    ShiftPriceFunction,
    SwapPriceFunction,
    min_cost_to_target,
    shift_bribery,
    swap_bribery,
    unit_or_priced_bribery,
)
from comsoc.cake import (
    Piece,
    PiecewisePolyDensity,
    check_fairness,
    cut_and_choose,
    cut_query,
    last_diminisher,
    measure,
)
from comsoc.circuits import MabInstance, mab_solve, mab_to_majority_circuit, wcs_solve
from comsoc.control import ControlInstance, ccdv_bruteforce, ccdv_fpt, reduce_instance
from comsoc.control import approval_view
from comsoc import dodgson
from comsoc.dodgson import dodgson_bruteforce, dodgson_score
from comsoc.elections import condorcet_winner, majority_matrix
from comsoc.kemeny import kemeny_brute_force, kemeny_dp
from comsoc.structure import all_single_peaked_axes, is_single_peaked_wrt

from conftest import DOC_ELECTION_4X3, DOC_ELECTION_SP_5X3, random_election, src_env
from test_bribery import dijkstra_swap_cost, random_price_table, swap_oracle
from test_cake import random_constant_density, random_linear_density
from test_circuits import random_circuit, truth_table_weight_k


class Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"\nACCEPTANCE {self.number:2d}: {status} in {elapsed:6.2f}s"
            f" (budget {self.budget}s) - {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_01_kemeny_golden():
    with Criterion(1, "doc election: Kemeny score 4, ranking 0>1>2>3, both routes", 1):
        for solver in (kemeny_dp, kemeny_brute_force):
            result = solver(DOC_ELECTION_4X3)
            assert result.score == 4
            assert result.ranking.ranking == (0, 1, 2, 3)


def test_criterion_02_single_peaked_golden():
    with Criterion(2, "doc election: both documented axes + reverses; full axis set", 1):
        documented = {(0, 1, 2, 3, 4), (3, 2, 1, 0, 4)}
        reverses = {tuple(reversed(a)) for a in documented}
        for axis in documented | reverses:
            assert is_single_peaked_wrt(DOC_ELECTION_SP_5X3, axis)
        valid = set(all_single_peaked_axes(DOC_ELECTION_SP_5X3))
        assert valid == documented | reverses
        assert len(list(permutations(range(5)))) == 120


def test_criterion_03_kemeny_oracle_equivalence():
    with Criterion(3, "200 seeded elections m<=7 n<=9: DP score == brute force", 60):
        agreements = 0
        for i in range(200):
            seed = 90000 + i
            rng = random.Random(seed)
            m = rng.randint(2, 7)
            n = rng.randint(1, 9)
            e = random_election(rng, m, n)
            if kemeny_dp(e).score == kemeny_brute_force(e).score:
                agreements += 1
            else:
                raise AssertionError(f"disagreement at seed {seed}")
        assert agreements == 200


def test_criterion_04_dodgson_model_validity(monkeypatch):
    # The swap-BFS oracle runs past its cap of 8 swaps here.
    monkeypatch.setattr(dodgson, "BRUTE_FORCE_MAX_K", 12)
    with Criterion(4, "300 seeded samples m<=4 n<=4: program == swap BFS, zero iff Condorcet", 300):
        for i in range(300):
            seed = 91000 + i
            rng = random.Random(seed)
            m = rng.randint(2, 4)
            n = rng.randint(1, 4)
            e = random_election(rng, m, n)
            winner = condorcet_winner(e)
            for c in range(m):
                score = dodgson_score(e, c).score
                assert (score == 0) == (winner == c), f"seed {seed} target {c}"
                got = dodgson_bruteforce(e, c, score)
                assert got == score, f"seed {seed} target {c}: {got} != {score}"


def test_criterion_05_ccdv_soundness():
    with Criterion(5, "300 seeded CCDV instances: fpt == oracle, reduction safe, pretest sound", 300):
        for i in range(300):
            seed = 92000 + i
            rng = random.Random(seed)
            m = rng.randint(2, 8)
            n = rng.randint(1, 12)
            d = rng.randint(1, min(3, m - 1))
            k = rng.randint(0, min(3, n))
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            inst = ControlInstance(e, d, p, k)
            fpt = ccdv_fpt(inst)
            oracle = ccdv_bruteforce(inst)
            assert (fpt is None) == (oracle is None), f"seed {seed}"
            reduced = reduce_instance(e, d, p)
            reduced_inst = ControlInstance(reduced, d, p, min(k, reduced.n))
            assert (ccdv_bruteforce(reduced_inst) is None) == (oracle is None), f"seed {seed}"
            view = approval_view(e, d)
            strictly_higher = sum(
                1 for c in range(m) if view.scores[c] > view.scores[p]
            )
            if strictly_higher > d * k:
                assert oracle is None, f"seed {seed}: pretest contradicts oracle"


def test_criterion_06_bribery_suite():
    with Criterion(6, "bribery: monotone budgets x200/flavor, joint swap oracle, Dijkstra", 600):
        # Budget monotonicity, 200 seeded instances per flavor.
        for i in range(200):
            seed = 93000 + i
            rng = random.Random(seed)
            m = rng.randint(2, 4)
            n = rng.randint(1, 3)
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            rule = random.Random(seed + 7).choice(
                ["plurality", "borda"]
            )
            from comsoc.elections import ScoringVector

            vec = ScoringVector.borda(m) if rule == "borda" else ScoringVector.plurality(m)
            b_small = rng.randint(0, 3)
            b_big = b_small + rng.randint(1, 3)
            price_fn = SwapPriceFunction([random_price_table(rng, m) for _ in range(n)])
            tariffs = ShiftPriceFunction.linear(e, p)
            voter_prices = tuple(rng.randint(0, 3) for _ in range(n))
            flavors = [
                lambda b: swap_bribery(e, vec, p, price_fn, b),
                lambda b: shift_bribery(e, vec, p, tariffs, b),
                lambda b: unit_or_priced_bribery(e, vec, p, BriberyBudget(min(b, n))),
                lambda b: unit_or_priced_bribery(e, vec, p, BriberyBudget(b, voter_prices)),
            ]
            for flavor in flavors:
                small = flavor(b_small)
                big = flavor(b_big)
                if small is not None:
                    assert big is not None, f"seed {seed}"
                    assert big.cost <= small.cost, f"seed {seed}"
        # Swap bribery vs the joint brute-force oracle, m <= 4, n <= 4.
        from comsoc.elections import ScoringVector

        for i in range(50):
            seed = 93500 + i
            rng = random.Random(seed)
            m = rng.randint(2, 4)
            n = rng.randint(1, 3 if m == 4 else 4)
            e = random_election(rng, m, n)
            p = rng.randrange(m)
            vec = ScoringVector.borda(m)
            price_fn = SwapPriceFunction([random_price_table(rng, m) for _ in range(n)])
            budget = rng.randint(0, 8)
            plan = swap_bribery(e, vec, p, price_fn, budget)
            best = swap_oracle(e, vec.alpha, p, price_fn, budget)
            assert (plan is None) == (best is None), f"seed {seed}"
            if plan is not None:
                assert plan.cost == best, f"seed {seed}"
        # Voter-level swap cost vs weighted shortest path, all m=4 order
        # pairs (24 x 24) for each seeded price function.
        perms = list(permutations(range(4)))
        for i in range(50):
            seed = 94000 + i
            rng = random.Random(seed)
            table = random_price_table(rng, 4)
            for start in perms:
                for target in perms:
                    assert min_cost_to_target(
                        start, target, table
                    ) == dijkstra_swap_cost(start, target, table), (
                        f"seed {seed} pair {start}->{target}"
                    )


def test_criterion_07_wcs_mab_cross_validation():
    with Criterion(7, "wcs vs truth table x100, ballot encoding equivalence, metric fixtures", 300):
        rng_master = random.Random(95000)
        for trial in range(100):
            n_vars = rng_master.randint(2, 14)
            gates = rng_master.randint(1, 12)
            c = random_circuit(rng_master, n_vars, gates)
            k = rng_master.randint(0, min(n_vars, 5))
            got = wcs_solve(c, k)
            hits = truth_table_weight_k(c, k)
            assert (got is None) == (not hits), f"trial {trial}"
            if hits:
                assert got == hits[0], f"trial {trial}"
        rng = random.Random(95500)
        for trial in range(40):
            m = rng.randint(1, 10)
            n = rng.randint(1, 5)
            ballots = [{p for p in range(m) if rng.random() < 0.4} for _ in range(n)]
            agenda = frozenset(p for p in range(m) if rng.random() < 0.15)
            inst = MabInstance(m, ballots, agenda)
            for k in range(max(1, len(agenda)), min(4, m) + 1):
                circuit = mab_to_majority_circuit(inst, k)
                assert (wcs_solve(circuit, k) is None) == (
                    mab_solve(inst, size=k) is None
                ), f"trial {trial} k={k}"
        # Hand-computed metric fixtures.
        from comsoc.circuits import Circuit

        small_and = Circuit(
            [("x0", "INPUT", ()), ("x1", "INPUT", ()), ("g", "AND2", ("x0", "x1"))], "g"
        )
        assert small_and.metrics() == type(small_and.metrics())(0, 1)
        big_or = Circuit(
            [(f"x{i}", "INPUT", ()) for i in range(4)]
            + [("g", "ORBIG", ("x0", "x1", "x2", "x3"))],
            "g",
        )
        assert big_or.metrics() == type(big_or.metrics())(1, 1)
        maj_of_ands = Circuit(
            [(f"x{i}", "INPUT", ()) for i in range(4)]
            + [
                ("a0", "ANDBIG", ("x0", "x1")),
                ("a1", "ANDBIG", ("x2", "x3")),
                ("a2", "ANDBIG", ("x0", "x3")),
                ("m", "MAJ", ("a0", "a1", "a2")),
            ],
            "m",
        )
        assert maj_of_ands.metrics() == type(maj_of_ands.metrics())(2, 2)


def test_criterion_08_cake_suite():
    with Criterion(8, "cake: exact measures, cut round-trips, 100 protocol runs each", 120):
        eps = Fraction(1, 10**9)
        tol = Fraction(1, 10**12)
        # Exact normalization and additivity on rational fixtures.
        fixtures = [
            PiecewisePolyDensity.uniform(),
            PiecewisePolyDensity([(0, 1, (Fraction(0), Fraction(2)))]),
            PiecewisePolyDensity([(0, 1, (Fraction(0), Fraction(0), Fraction(3)))]),
            PiecewisePolyDensity(
                [
                    (0, Fraction(1, 2), (Fraction(3, 2),)),
                    (Fraction(1, 2), 1, (Fraction(1, 2),)),
                ]
            ),
        ]
        for f in fixtures:
            assert measure(f, Piece.interval(0, 1)) == 1
            left = Piece([(0, Fraction(1, 3))])
            right = Piece([(Fraction(1, 3), Fraction(5, 6))])
            union = Piece([(0, Fraction(1, 3)), (Fraction(1, 3), Fraction(5, 6))])
            assert measure(f, union) == measure(f, left) + measure(f, right)
        # Cut round-trips within 1e-12, closed form and bisection paths.
        rng = random.Random(96000)
        for f in fixtures:
            for _ in range(25):
                a = Fraction(rng.randint(0, 4), 8)
                v = f.measure_interval(a, 1) * Fraction(rng.randint(0, 16), 16)
                x = cut_query(f, a, v)
                assert abs(f.measure_interval(a, x) - v) <= tol
        # Protocol properties, 100 random profiles each.
        rng = random.Random(96500)
        for trial in range(100):
            densities = [
                random_constant_density(rng) if trial % 2 == 0 else random_linear_density(rng)
                for _ in range(2)
            ]
            report = check_fairness(cut_and_choose(densities), densities, eps=eps)
            assert report.envy_free, f"cut-and-choose trial {trial}"
        for trial in range(100):
            n = rng.randint(2, 6)
            densities = [
                random_constant_density(rng) if rng.random() < 0.5 else random_linear_density(rng)
                for _ in range(n)
            ]
            division = last_diminisher(densities)
            division.validate()
            report = check_fairness(division, densities, eps=eps)
            assert report.proportional, f"last-diminisher trial {trial}"


def test_criterion_09_condorcet_consistency():
    with Criterion(9, "500 seeds m<=6: every optimal ranking tops the Condorcet winner", 120):
        seen_with_winner = 0
        for i in range(500):
            seed = 97000 + i
            rng = random.Random(seed)
            m = rng.randint(2, 6)
            n = rng.randint(1, 9)
            e = random_election(rng, m, n)
            winner = condorcet_winner(e)
            if winner is None:
                continue
            seen_with_winner += 1
            wins = majority_matrix(e).wins
            best = None
            optima = []
            for candidate in permutations(range(m)):
                score = 0
                for i_pos in range(m):
                    above = candidate[i_pos]
                    for j_pos in range(i_pos + 1, m):
                        score += wins[candidate[j_pos]][above]
                if best is None or score < best:
                    best = score
                    optima = [candidate]
                elif score == best:
                    optima.append(candidate)
            for ranking in optima:
                assert ranking[0] == winner, f"seed {seed}: {ranking}"
        assert seen_with_winner >= 100


def test_criterion_10_cli_determinism(tmp_path):
    with Criterion(10, "fixed-seed CLI runs are byte-identical across processes", 60):
        gen = [
            sys.executable,
            "-m",
            "comsoc.cli",
            "gen",
            "--model",
            "euclidean-1d",
            "--m",
            "5",
            "--n",
            "6",
            "--seed",
            "2024",
        ]
        env = src_env()
        first = subprocess.run(gen, capture_output=True, check=True, env=env)
        second = subprocess.run(gen, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        election_file = tmp_path / "generated.soc"
        soc = subprocess.run(
            gen + ["--format", "soc"], capture_output=True, check=True, env=env
        )
        election_file.write_bytes(soc.stdout)
        for argv in (
            ["winners", "--rule", "borda"],
            ["kemeny"],
            ["dodgson", "--target", "0"],
            ["structure", "--check", "sc"],
        ):
            cmd = [sys.executable, "-m", "comsoc.cli", *argv, "--in", str(election_file)]
            runs = [subprocess.run(cmd, capture_output=True, env=env) for _ in range(2)]
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout.strip()
            json.loads(runs[0].stdout)
