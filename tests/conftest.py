import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from comsoc.elections import Election, PreferenceOrder

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """Environment for child processes that import comsoc from this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))


# Four alternatives, three voters. The unique optimal Kemeny ranking is
# a1 > a2 > a3 > a4 (ids 0,1,2,3) with score 4; a1 is the Condorcet winner.
DOC_ELECTION_4X3 = Election(
    [
        (0, 1, 2, 3),
        (0, 1, 3, 2),
        (2, 1, 0, 3),
    ]
)

# Five alternatives, three voters, single-peaked with respect to the
# axes (0,1,2,3,4) and (3,2,1,0,4) and to both of their reverses.
DOC_ELECTION_SP_5X3 = Election(
    [
        (0, 1, 2, 3, 4),
        (2, 3, 1, 0, 4),
        (2, 1, 0, 3, 4),
    ]
)


@pytest.fixture
def election_4x3():
    return DOC_ELECTION_4X3


@pytest.fixture
def election_sp_5x3():
    return DOC_ELECTION_SP_5X3


def random_election(rng: random.Random, m: int, n: int) -> Election:
    """Impartial-culture election: independent uniform orders."""
    voters = []
    for _ in range(n):
        order = list(range(m))
        rng.shuffle(order)
        voters.append(PreferenceOrder(order))
    return Election(voters)


def seeded_elections(base_seed: int, count: int, max_m: int, max_n: int, min_m: int = 2, min_n: int = 1):
    """Deterministic stream of (seed, election) pairs for oracle suites."""
    out = []
    for i in range(count):
        seed = base_seed + i
        rng = random.Random(seed)
        m = rng.randint(min_m, max_m)
        n = rng.randint(min_n, max_n)
        out.append((seed, random_election(rng, m, n)))
    return out


def multiplicity_heavy(rng, m, max_types, max_count):
    """A few distinct orders, each repeated, in shuffled voter order."""
    orders = []
    for _ in range(rng.randint(1, max_types)):
        order = tuple(rng.sample(range(m), m))
        orders.extend([order] * rng.randint(1, max_count))
    rng.shuffle(orders)
    return Election(orders)


def elections(max_m=6, max_n=7):
    """Hypothesis strategy: impartial-culture elections with 2..max_m alternatives."""

    @st.composite
    def build(draw):
        m = draw(st.integers(2, max_m))
        n = draw(st.integers(1, max_n))
        voters = [draw(st.permutations(range(m))) for _ in range(n)]
        return Election(voters)

    return build()
