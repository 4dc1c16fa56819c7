"""Deterministic election generators.

All randomness comes from ``random.Random(seed)`` (the stdlib Mersenne
Twister, whose output for the methods used here is stable across
platforms and Python versions), so equal specs produce byte-identical
elections everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .elections import Election, PreferenceOrder
from .errors import CapacityError
from .structure import EuclideanEmbedding

MODELS = ("impartial-culture", "single-peaked", "euclidean-1d")
EUCLIDEAN_GRID = 10**6
MAX_CELLS = 1_000_000


@dataclass(frozen=True)
class GeneratorSpec:
    """Model name, sizes, seed, and (for single-peaked) an optional axis.
    More than ``MAX_CELLS`` order entries (m * n) raise :class:`CapacityError`."""

    model: str
    m: int
    n: int
    seed: int
    axis: tuple = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be at least 1")
        if self.m * self.n > MAX_CELLS:
            raise CapacityError(f"m*n = {self.m * self.n} order entries, limit {MAX_CELLS}")
        if self.axis is not None:
            axis = tuple(self.axis)
            if sorted(axis) != list(range(self.m)):
                raise ValueError("axis must be a permutation of 0..m-1")
            object.__setattr__(self, "axis", axis)


@dataclass(frozen=True)
class GeneratedElection:
    """Generator output: the election plus structure certificates.

    ``axis`` is set by the single-peaked model, ``embedding`` by the
    Euclidean model; each certifies the advertised structure.
    """

    election: Election
    axis: tuple = None
    embedding: EuclideanEmbedding = None


def _impartial_culture(rng, m, n):
    voters = []
    for _ in range(n):
        order = list(range(m))
        rng.shuffle(order)
        voters.append(PreferenceOrder(order))
    return Election(voters)


def _single_peaked(rng, m, n, axis):
    """Uniform end-peeling walk: repeatedly hand the next-worst rank to one
    end of the remaining axis segment, so every order is single-peaked by
    construction."""
    voters = []
    for _ in range(n):
        lo, hi = 0, m - 1
        worst_first = []
        while lo < hi:
            if rng.random() < 0.5:
                worst_first.append(axis[lo])
                lo += 1
            else:
                worst_first.append(axis[hi])
                hi -= 1
        worst_first.append(axis[lo])
        voters.append(PreferenceOrder(reversed(worst_first)))
    return Election(voters)


def _euclidean_1d(rng, m, n):
    """Positions on a fine grid, redrawn until every voter has strictly
    distinct distances to all alternatives.

    Positions are drawn as grid integers and compared as such; scaling by
    ``1 / EUCLIDEAN_GRID`` changes neither the order of distances nor their
    ties, so only the accepted draw becomes exact rationals."""
    for _ in range(1000):
        alts = [rng.randrange(EUCLIDEAN_GRID + 1) for _ in range(m)]
        voters_pos = [rng.randrange(EUCLIDEAN_GRID + 1) for _ in range(n)]
        orders = []
        for vp in voters_pos:
            dists = [abs(a - vp) for a in alts]
            if len(set(dists)) != m:
                orders = None
                break
            orders.append(sorted(range(m), key=dists.__getitem__))
        if orders is not None:
            embedding = EuclideanEmbedding(
                1,
                [(Fraction(x, EUCLIDEAN_GRID),) for x in alts],
                [(Fraction(x, EUCLIDEAN_GRID),) for x in voters_pos],
            )
            return Election(orders), embedding
    raise CapacityError(f"could not draw tie-free Euclidean positions for m={m}, n={n}")


def generate(spec: GeneratorSpec) -> GeneratedElection:
    """Deterministic election for a generator configuration; equal inputs
    give byte-identical elections."""
    rng = random.Random(spec.seed)
    if spec.model == "impartial-culture":
        return GeneratedElection(_impartial_culture(rng, spec.m, spec.n))
    if spec.model == "single-peaked":
        axis = spec.axis if spec.axis is not None else tuple(range(spec.m))
        return GeneratedElection(_single_peaked(rng, spec.m, spec.n, axis), axis=axis)
    election, embedding = _euclidean_1d(rng, spec.m, spec.n)
    return GeneratedElection(election, embedding=embedding)
