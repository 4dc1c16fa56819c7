"""Optimal rank aggregation two ways: factorial search vs subset DP."""

import random
import time

from comsoc import Election, GeneratorSpec, avg_pairwise_distance, generate, kemeny_brute_force, kemeny_dp

e = Election(
    [
        (0, 1, 2, 3),
        (0, 1, 3, 2),
        (2, 1, 0, 3),
    ]
)

bf = kemeny_brute_force(e)
dp = kemeny_dp(e)
print("brute force:", list(bf.ranking), "score", bf.score)
print("subset DP:  ", list(dp.ranking), "score", dp.score)
print("average voter disagreement d_a:", avg_pairwise_distance(e))

# The two routes stay bit-identical on random elections.
rng = random.Random(7)
for trial in range(5):
    m, n = rng.randint(2, 6), rng.randint(1, 8)
    voters = []
    for _ in range(n):
        order = list(range(m))
        rng.shuffle(order)
        voters.append(order)
    e = Election(voters)
    assert kemeny_dp(e) == kemeny_brute_force(e)
    print(f"random m={m} n={n}: score {kemeny_dp(e).score}, routes agree")

# Impartial culture keeps one majority component of nearly all alternatives;
# the lower and upper bounds leave the subset DP a small share of its 2^20
# subsets.
e = generate(GeneratorSpec("impartial-culture", 20, 51, 1)).election
start = time.perf_counter()
result = kemeny_dp(e)
print(f"impartial culture m=20 n=51: score {result.score} in {time.perf_counter() - start:.3f} s")
