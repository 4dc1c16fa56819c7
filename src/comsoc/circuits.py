"""Boolean circuits with majority gates, weighted satisfiability, and
majoritywise ballot acceptance.

Circuits are DAGs of gates: INPUT, NOT, small AND2/OR2 (fan-in at most
two), large ANDBIG/ORBIG (any finite fan-in), and MAJ, which outputs true
when strictly more than half of its fan-in entries are true (an exact half
is false; duplicate fan-in references are allowed and each entry counts).
Weft counts large gates (ANDBIG, ORBIG, MAJ) on a path from an input to
the output; depth counts all gates. Gates must be declared before use, so
declaration order is a topological order and cycles cannot be expressed.

The ballot problem: given proposals, per-voter favorite ballots, and an
agenda that must be included, find a ballot Q containing the agenda such
that strictly more than half of the voters accept it, a voter accepting Q
when their favorite ballot covers strictly more than half of Q. The
encoder turns a fixed ballot size k into a circuit whose weight-k
satisfying assignments are exactly the acceptable ballots of size k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import CapacityError

GATE_KINDS = ("INPUT", "NOT", "AND2", "OR2", "ANDBIG", "ORBIG", "MAJ")
LARGE_GATES = frozenset({"ANDBIG", "ORBIG", "MAJ"})

WCS_MAX_COMBINATIONS = 2_000_000
MAB_MAX_PROPOSALS = 20


@dataclass(frozen=True)
class CircuitMetrics:
    weft: int
    depth: int


class Circuit:
    """An immutable gate DAG with a single designated output.

    ``gates`` is a sequence of ``(gid, kind, inputs)`` triples in
    declaration order; inputs refer to earlier gids only. INPUT gates take
    no inputs and double as the circuit's variables, in declaration order.
    """

    __slots__ = ("gates", "output", "variables")

    def __init__(self, gates, output):
        seen = set()
        fixed = []
        variables = []
        inputs_done = True
        for gid, kind, inputs in gates:
            gid = str(gid)
            inputs = tuple(str(x) for x in inputs)
            if gid in seen:
                raise ValueError(f"duplicate gate id {gid!r}")
            if kind not in GATE_KINDS:
                raise ValueError(f"gate {gid!r}: unknown kind {kind!r}")
            for ref in inputs:
                if ref not in seen:
                    raise ValueError(f"gate {gid!r}: reference to undeclared gate {ref!r}")
            if kind == "INPUT":
                if inputs:
                    raise ValueError(f"gate {gid!r}: INPUT takes no inputs")
                if not inputs_done:
                    raise ValueError("variables must be declared before other gates")
                variables.append(gid)
            else:
                inputs_done = False
                if kind == "NOT" and len(inputs) != 1:
                    raise ValueError(f"gate {gid!r}: NOT takes exactly one input")
                if kind in ("AND2", "OR2") and not 1 <= len(inputs) <= 2:
                    raise ValueError(f"gate {gid!r}: small gates take one or two inputs")
                if kind in ("ANDBIG", "ORBIG", "MAJ") and len(inputs) < 1:
                    raise ValueError(f"gate {gid!r}: large gates need at least one input")
            seen.add(gid)
            fixed.append((gid, kind, inputs))
        output = str(output)
        if output not in seen:
            raise ValueError(f"output {output!r} is not a declared gate")
        object.__setattr__(self, "gates", tuple(fixed))
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "variables", tuple(variables))

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    @property
    def n_variables(self):
        return len(self.variables)

    def evaluate(self, true_variables) -> bool:
        """Topological evaluation under the given set of true variables."""
        true_variables = set(true_variables)
        unknown = true_variables.difference(self.variables)
        if unknown:
            raise ValueError(f"assignment mentions non-variables: {sorted(unknown)}")
        value = {}
        for gid, kind, inputs in self.gates:
            if kind == "INPUT":
                value[gid] = gid in true_variables
            elif kind == "NOT":
                value[gid] = not value[inputs[0]]
            elif kind in ("AND2", "ANDBIG"):
                value[gid] = all(value[x] for x in inputs)
            elif kind in ("OR2", "ORBIG"):
                value[gid] = any(value[x] for x in inputs)
            else:  # MAJ, strict majority of fan-in entries
                value[gid] = 2 * sum(value[x] for x in inputs) > len(inputs)
        return value[self.output]

    def metrics(self) -> CircuitMetrics:
        """Longest-path weft and depth from any input to the output."""
        weft = {}
        depth = {}
        for gid, kind, inputs in self.gates:
            if kind == "INPUT":
                weft[gid] = 0
                depth[gid] = 0
            else:
                large = 1 if kind in LARGE_GATES else 0
                weft[gid] = large + max(weft[x] for x in inputs)
                depth[gid] = 1 + max(depth[x] for x in inputs)
        return CircuitMetrics(weft[self.output], depth[self.output])


def wcs_solve(circuit: Circuit, k: int):
    """First weight-k satisfying assignment, by variable declaration order.

    Returns the true variables as a tuple, or None. Weight is exact: the
    assignment sets exactly ``k`` variables true, so ``k`` above the
    variable count has no solution. A negative ``k`` raises ValueError.
    """
    if k < 0:
        raise ValueError(f"weight k must be nonnegative, got {k}")
    n = circuit.n_variables
    if k > n:
        return None
    if comb(n, k) > WCS_MAX_COMBINATIONS:
        raise CapacityError(f"C({n}, {k}) assignments exceed limit {WCS_MAX_COMBINATIONS}")
    for subset in combinations(circuit.variables, k):
        if circuit.evaluate(subset):
            return subset
    return None


@dataclass(frozen=True)
class MabInstance:
    """Proposals 0..m-1, per-voter favorite ballots, and a forced agenda."""

    m: int
    ballots: tuple
    agenda: frozenset

    def __post_init__(self):
        ballots = tuple(frozenset(b) for b in self.ballots)
        agenda = frozenset(self.agenda)
        universe = range(self.m)
        for i, b in enumerate(ballots):
            if not all(p in universe for p in b):
                raise ValueError(f"ballot {i} mentions unknown proposals")
        if not all(p in universe for p in agenda):
            raise ValueError("agenda mentions unknown proposals")
        if not ballots:
            raise ValueError("at least one voter required")
        object.__setattr__(self, "ballots", ballots)
        object.__setattr__(self, "agenda", agenda)

    @property
    def n(self):
        return len(self.ballots)


def accepts(ballot, q) -> bool:
    """Voter acceptance: the favorite ballot covers a strict majority of q."""
    return 2 * len(ballot & q) > len(q)


def mab_solve(
    inst: MabInstance,
    size=None,
    unanimous: bool = False,
):
    """Smallest, then lexicographically first, accepted ballot Q containing
    the agenda; None if none exists.

    With ``size`` given, only ballots of exactly that size are searched.
    Acceptance needs strictly more than half of the voters (all of them
    under ``unanimous``).
    """
    if inst.m > MAB_MAX_PROPOSALS:
        raise CapacityError(f"ballot search limited to m <= {MAB_MAX_PROPOSALS}, got {inst.m}")
    if size is not None and not len(inst.agenda) <= size <= inst.m:
        raise ValueError(f"size {size} incompatible with agenda of {len(inst.agenda)}")
    sizes = [size] if size is not None else list(range(len(inst.agenda), inst.m + 1))
    pool = sorted(set(range(inst.m)) - inst.agenda)
    needed = inst.n if unanimous else inst.n // 2 + 1
    for s in sizes:
        for extra in combinations(pool, s - len(inst.agenda)):
            q = inst.agenda | frozenset(extra)
            votes = sum(1 for b in inst.ballots if accepts(b, q))
            if votes >= needed:
                return tuple(sorted(q))
    return None


def mab_to_majority_circuit(inst: MabInstance, k: int) -> Circuit:
    """Circuit whose weight-k satisfying assignments are exactly the
    acceptable ballots of size k.

    One variable per proposal; a weight-k assignment is the ballot of its
    true variables. Per voter, a MAJ gate checks that the ballot overlap
    beats k/2: with ``b`` ballot variables wired in and the threshold
    ``t = floor(k/2) + 1``, constant pads (built from small gates over the
    first variable) are added until fan-in minus true pads equals
    ``2t - 1``, which makes strict MAJ coincide with "at least t of the
    ballot variables are true". An outer MAJ over the voter gates demands
    a strict voter majority, and small AND gates chain in the agenda
    variables, so the agenda adds no weft.
    """
    if k < 1:
        raise ValueError("ballot size k must be at least 1")
    if inst.m < 1:
        raise ValueError("need at least one proposal")
    gates = [(f"x{p}", "INPUT", ()) for p in range(inst.m)]
    threshold = k // 2 + 1
    need_true_pad = False
    need_false_pad = False
    plans = []
    for i, ballot in enumerate(inst.ballots):
        b = len(ballot)
        if b == 0:
            plans.append(None)
            need_false_pad = True
            continue
        excess = b - (2 * threshold - 1)
        if excess > 0:
            plans.append((ballot, excess, 0))
            need_true_pad = True
        else:
            plans.append((ballot, 0, -excess))
            need_false_pad = need_false_pad or excess < 0
    if need_true_pad or need_false_pad:
        gates.append(("neg0", "NOT", ("x0",)))
    if need_true_pad:
        gates.append(("padtrue", "OR2", ("x0", "neg0")))
    if need_false_pad:
        gates.append(("padfalse", "AND2", ("x0", "neg0")))

    voter_gates = []
    for i, plan in enumerate(plans):
        if plan is None:
            voter_gates.append("padfalse")
            continue
        ballot, n_true, n_false = plan
        fan_in = tuple(f"x{p}" for p in sorted(ballot))
        fan_in += ("padtrue",) * n_true + ("padfalse",) * n_false
        gates.append((f"acc{i}", "MAJ", fan_in))
        voter_gates.append(f"acc{i}")
    gates.append(("voters", "MAJ", tuple(voter_gates)))

    output = "voters"
    for j, p in enumerate(sorted(inst.agenda)):
        gid = f"agenda{j}"
        gates.append((gid, "AND2", (f"x{p}", output)))
        output = gid
    return Circuit(gates, output)
