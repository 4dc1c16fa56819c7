import random
from itertools import product

import pytest

from comsoc.circuits import (
    Circuit,
    MabInstance,
    accepts,
    mab_solve,
    mab_to_majority_circuit,
    wcs_solve,
)
from comsoc.errors import CapacityError


def reference_eval(circuit: Circuit, true_vars):
    """Independent recursive evaluator used as the oracle's semantics."""
    kind = {gid: k for gid, k, _ in circuit.gates}
    inputs = {gid: ins for gid, _, ins in circuit.gates}
    memo = {}

    def go(gid):
        if gid in memo:
            return memo[gid]
        k = kind[gid]
        if k == "INPUT":
            result = gid in true_vars
        elif k == "NOT":
            result = not go(inputs[gid][0])
        elif k in ("AND2", "ANDBIG"):
            result = all(go(x) for x in inputs[gid])
        elif k in ("OR2", "ORBIG"):
            result = any(go(x) for x in inputs[gid])
        else:
            votes = sum(1 for x in inputs[gid] if go(x))
            result = 2 * votes > len(inputs[gid])
        memo[gid] = result
        return result

    return go(circuit.output)


def truth_table_weight_k(circuit: Circuit, k):
    """All weight-k satisfying assignments from the full truth table,
    sorted by variable declaration index (not gid string)."""
    hits = []
    variables = circuit.variables
    index = {v: i for i, v in enumerate(variables)}
    for bits in product((False, True), repeat=len(variables)):
        if sum(bits) != k:
            continue
        chosen = tuple(v for v, b in zip(variables, bits) if b)
        if reference_eval(circuit, set(chosen)):
            hits.append(chosen)
    hits.sort(key=lambda assignment: tuple(index[v] for v in assignment))
    return hits


def random_circuit(rng: random.Random, n_vars, n_gates):
    gates = [(f"x{i}", "INPUT", ()) for i in range(n_vars)]
    pool = [f"x{i}" for i in range(n_vars)]
    for g in range(n_gates):
        kind = rng.choice(("NOT", "AND2", "OR2", "ANDBIG", "ORBIG", "MAJ"))
        if kind == "NOT":
            ins = (rng.choice(pool),)
        elif kind in ("AND2", "OR2"):
            ins = tuple(rng.sample(pool, min(2, len(pool))))
        else:
            ins = tuple(rng.sample(pool, rng.randint(1, min(5, len(pool)))))
        gid = f"g{g}"
        gates.append((gid, kind, ins))
        pool.append(gid)
    return Circuit(gates, pool[-1])


class TestCircuitStructure:
    def test_single_input_as_output(self):
        c = Circuit([("x0", "INPUT", ())], "x0")
        assert c.evaluate({"x0"}) is True
        assert c.evaluate(set()) is False

    def test_dangling_reference_rejected_at_load(self):
        with pytest.raises(ValueError, match="undeclared"):
            Circuit([("x0", "INPUT", ()), ("g", "NOT", ("ghost",))], "g")

    def test_duplicate_gid_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Circuit([("x0", "INPUT", ()), ("x0", "INPUT", ())], "x0")

    def test_variables_must_come_first(self):
        with pytest.raises(ValueError, match="declared before"):
            Circuit(
                [("x0", "INPUT", ()), ("g", "NOT", ("x0",)), ("x1", "INPUT", ())],
                "g",
            )

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            Circuit([("x0", "INPUT", ()), ("g", "NOT", ("x0", "x0"))], "g")
        with pytest.raises(ValueError):
            Circuit(
                [("x0", "INPUT", ()), ("g", "AND2", ("x0", "x0", "x0"))], "g"
            )
        with pytest.raises(ValueError):
            Circuit([("x0", "INPUT", ()), ("g", "MAJ", ())], "g")

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError, match="output"):
            Circuit([("x0", "INPUT", ())], "g")

    def test_assignment_with_unknown_variable_rejected(self):
        c = Circuit([("x0", "INPUT", ())], "x0")
        with pytest.raises(ValueError):
            c.evaluate({"y"})


class TestEvaluate:
    def test_majority_gate_strictness(self):
        c = Circuit(
            [
                ("x0", "INPUT", ()),
                ("x1", "INPUT", ()),
                ("x2", "INPUT", ()),
                ("m", "MAJ", ("x0", "x1", "x2")),
            ],
            "m",
        )
        assert c.evaluate({"x0", "x1"}) is True
        assert c.evaluate({"x0"}) is False

    def test_even_fan_in_half_is_false(self):
        c = Circuit(
            [
                ("x0", "INPUT", ()),
                ("x1", "INPUT", ()),
                ("m", "MAJ", ("x0", "x1")),
            ],
            "m",
        )
        assert c.evaluate({"x0"}) is False
        assert c.evaluate({"x0", "x1"}) is True

    def test_de_morgan_exhaustively(self):
        variables = [(f"x{i}", "INPUT", ()) for i in range(4)]
        names = tuple(f"x{i}" for i in range(4))
        lhs = Circuit(
            variables + [("a", "ANDBIG", names), ("out", "NOT", ("a",))], "out"
        )
        negs = [(f"n{i}", "NOT", (f"x{i}",)) for i in range(4)]
        rhs = Circuit(
            variables + negs + [("out", "ORBIG", tuple(f"n{i}" for i in range(4)))],
            "out",
        )
        for bits in product((False, True), repeat=4):
            assignment = {v for v, b in zip(names, bits) if b}
            assert lhs.evaluate(assignment) == rhs.evaluate(assignment)

    def test_matches_reference_evaluator(self):
        rng = random.Random(41)
        for _ in range(30):
            c = random_circuit(rng, rng.randint(2, 6), rng.randint(1, 8))
            for _ in range(10):
                assignment = {v for v in c.variables if rng.random() < 0.5}
                assert c.evaluate(assignment) == reference_eval(c, assignment)


class TestMetrics:
    def test_small_and_gate(self):
        c = Circuit(
            [("x0", "INPUT", ()), ("x1", "INPUT", ()), ("g", "AND2", ("x0", "x1"))],
            "g",
        )
        assert c.metrics().weft == 0
        assert c.metrics().depth == 1

    def test_big_or_gate(self):
        variables = [(f"x{i}", "INPUT", ()) for i in range(5)]
        c = Circuit(variables + [("g", "ORBIG", tuple(f"x{i}" for i in range(5)))], "g")
        assert c.metrics().weft == 1
        assert c.metrics().depth == 1

    def test_majority_of_big_ands(self):
        gates = [(f"x{i}", "INPUT", ()) for i in range(6)]
        gates.append(("a0", "ANDBIG", ("x0", "x1", "x2")))
        gates.append(("a1", "ANDBIG", ("x3", "x4", "x5")))
        gates.append(("a2", "ANDBIG", ("x0", "x3")))
        gates.append(("m", "MAJ", ("a0", "a1", "a2")))
        c = Circuit(gates, "m")
        assert c.metrics().weft == 2
        assert c.metrics().depth == 2

    def test_not_chain_adds_depth_not_weft(self):
        gates = [("x0", "INPUT", ()), ("big", "ORBIG", ("x0",))]
        prev = "big"
        for i in range(5):
            gates.append((f"n{i}", "NOT", (prev,)))
            prev = f"n{i}"
        c = Circuit(gates, prev)
        assert c.metrics().weft == 1
        assert c.metrics().depth == 6


class TestWcs:
    def test_big_or_weight_one(self):
        variables = [(f"x{i}", "INPUT", ()) for i in range(5)]
        c = Circuit(variables + [("g", "ORBIG", tuple(f"x{i}" for i in range(5)))], "g")
        assert wcs_solve(c, 1) == ("x0",)

    def test_big_and_needs_full_weight(self):
        variables = [(f"x{i}", "INPUT", ()) for i in range(4)]
        c = Circuit(variables + [("g", "ANDBIG", tuple(f"x{i}" for i in range(4)))], "g")
        assert wcs_solve(c, 3) is None
        assert wcs_solve(c, 4) == ("x0", "x1", "x2", "x3")

    def test_out_of_range_weight(self):
        c = Circuit([("x0", "INPUT", ())], "x0")
        assert wcs_solve(c, 2) is None

    def test_negative_weight_rejected(self):
        c = Circuit([("x0", "INPUT", ())], "x0")
        with pytest.raises(ValueError, match="nonnegative"):
            wcs_solve(c, -1)

    def test_capacity_limit(self):
        variables = [(f"x{i}", "INPUT", ()) for i in range(40)]
        c = Circuit(variables + [("g", "ORBIG", tuple(f"x{i}" for i in range(40)))], "g")
        with pytest.raises(CapacityError):
            wcs_solve(c, 20)

    def test_matches_truth_table_oracle(self):
        rng = random.Random(42)
        for trial in range(40):
            n_vars = rng.randint(2, 9)
            c = random_circuit(rng, n_vars, rng.randint(1, 10))
            k = rng.randint(0, n_vars)
            got = wcs_solve(c, k)
            hits = truth_table_weight_k(c, k)
            if not hits:
                assert got is None, f"trial {trial}"
            else:
                assert got == hits[0], f"trial {trial}"
                assert c.evaluate(got)
                assert len(got) == k


def mab_oracle(inst: MabInstance, size=None, unanimous=False):
    """Independent bitmask enumeration in (size, lexicographic) order."""
    best = None
    for mask in range(1 << inst.m):
        q = frozenset(p for p in range(inst.m) if mask >> p & 1)
        if not inst.agenda <= q:
            continue
        if size is not None and len(q) != size:
            continue
        yes = sum(1 for b in inst.ballots if 2 * len(b & q) > len(q))
        needed = inst.n if unanimous else inst.n // 2 + 1
        if yes >= needed:
            key = (len(q), tuple(sorted(q)))
            if best is None or key < best:
                best = key
    return best[1] if best is not None else None


class TestMabSolve:
    def test_single_voter_single_proposal(self):
        inst = MabInstance(2, [{1}], frozenset())
        assert mab_solve(inst) == (1,)

    def test_all_ballots_empty(self):
        inst = MabInstance(3, [set(), set()], frozenset())
        assert mab_solve(inst) is None

    def test_agenda_is_forced(self):
        inst = MabInstance(3, [{0}, {0}, {0}], frozenset({2}))
        got = mab_solve(inst)
        assert got is None or 2 in got

    @pytest.mark.parametrize(
        "ballots, agenda, message",
        [
            ([{0}, {1, 2}], (), "ballot 1 mentions unknown proposals"),
            ([{0}], {2}, "agenda mentions unknown proposals"),
            ([], (), "at least one voter required"),
        ],
        ids=["ballot", "agenda", "no-voters"],
    )
    def test_instance_checks(self, ballots, agenda, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MabInstance(2, ballots, agenda)

    def test_size_bounds_checked(self):
        inst = MabInstance(3, [{0, 1}], frozenset({0, 1}))
        with pytest.raises(ValueError):
            mab_solve(inst, size=1)

    def test_capacity_limit(self):
        inst = MabInstance(21, [{0}], frozenset())
        with pytest.raises(CapacityError):
            mab_solve(inst)

    def test_acceptance_is_not_monotone(self):
        # One voter favoring proposal 0: {0} is accepted, {0, 1} is not.
        inst = MabInstance(2, [{0}], frozenset())
        assert accepts(inst.ballots[0], frozenset({0}))
        assert not accepts(inst.ballots[0], frozenset({0, 1}))

    def test_matches_independent_oracle(self):
        rng = random.Random(43)
        for trial in range(60):
            m = rng.randint(1, 8)
            n = rng.randint(1, 7)
            ballots = [
                {p for p in range(m) if rng.random() < 0.4} for _ in range(n)
            ]
            agenda = frozenset(p for p in range(m) if rng.random() < 0.15)
            inst = MabInstance(m, ballots, agenda)
            size = rng.choice([None, rng.randint(len(agenda), m)])
            unanimous = rng.random() < 0.3
            assert mab_solve(inst, size=size, unanimous=unanimous) == mab_oracle(
                inst, size=size, unanimous=unanimous
            ), f"trial {trial}"


class TestMabEncoding:
    def test_extensional_equivalence(self):
        rng = random.Random(44)
        for trial in range(60):
            m = rng.randint(1, 7)
            n = rng.randint(1, 5)
            ballots = [
                {p for p in range(m) if rng.random() < 0.45} for _ in range(n)
            ]
            agenda = frozenset(p for p in range(m) if rng.random() < 0.2)
            inst = MabInstance(m, ballots, agenda)
            for k in range(1, min(4, m) + 1):
                if k < len(agenda):
                    continue
                circuit = mab_to_majority_circuit(inst, k)
                wcs = wcs_solve(circuit, k)
                mab = mab_solve(inst, size=k)
                assert (wcs is None) == (mab is None), f"trial {trial} k={k}"
                if wcs is not None:
                    ballot = tuple(sorted(int(v[1:]) for v in wcs))
                    assert ballot == mab, f"trial {trial} k={k}"

    def test_agenda_too_big_for_weight_is_unsatisfiable(self):
        inst = MabInstance(4, [{0, 1}], frozenset({0, 1, 2}))
        circuit = mab_to_majority_circuit(inst, 2)
        assert wcs_solve(circuit, 2) is None

    def test_single_ballot_weight_one(self):
        rng = random.Random(45)
        for _ in range(10):
            m = rng.randint(1, 6)
            ballot = {p for p in range(m) if rng.random() < 0.5}
            inst = MabInstance(m, [ballot], frozenset())
            circuit = mab_to_majority_circuit(inst, 1)
            assert (wcs_solve(circuit, 1) is not None) == bool(ballot)

    def test_encoding_weft_is_two(self):
        inst = MabInstance(4, [{0, 1}, {2}], frozenset({1}))
        metrics = mab_to_majority_circuit(inst, 2).metrics()
        assert metrics.weft == 2
