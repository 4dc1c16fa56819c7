"""Dodgson scores: fewest adjacent swaps to forge a Condorcet winner."""

import time

from comsoc import (
    Election,
    GeneratorSpec,
    build_program,
    dodgson_bruteforce,
    dodgson_score,
    generate,
)

e = Election(
    [
        (0, 1, 2, 3),
        (0, 1, 3, 2),
        (2, 1, 0, 3),
    ],
    labels=("a1", "a2", "a3", "a4"),
)

for c in e.alternatives():
    program = build_program(e, c)
    solution = dodgson_score(e, c)
    print(
        f"{e.label_of(c)}: deficits {list(program.deficits)}, score {solution.score},"
        f" lifts {solution.lifts}"
    )

# The typed program agrees with raw breadth-first search over swap
# sequences (which may swap any adjacent pair, not only the target).
for c in e.alternatives():
    score = dodgson_score(e, c).score
    assert dodgson_bruteforce(e, c, score) == score
print("swap-BFS oracle confirms every score")

# A larger profile: 60 impartial-culture voters over 7 alternatives. The
# search remembers the cheapest cost per (stage, remaining deficits) at
# each voter type's first stage and cuts costlier revisits.
e = generate(GeneratorSpec("impartial-culture", 7, 60, 1)).election
start = time.perf_counter()
solution = dodgson_score(e, 2)
print(f"IC m=7 n=60: target 2 scores {solution.score} in {time.perf_counter() - start:.2f} s")
