"""Record the golden table: the canonical answer of every task in the
set-up rounds of each workload, for the default seed and one held-out
seed. Every answer must pass its certificate check first.

    python3 perfbench/record_golden.py [workload ...]

Re-record only when the program's documented answers change on purpose.
"""

import json
import sys

import run

SEEDS = (1, 2)


def main(names):
    table = {}
    if run.GOLDEN.is_file():
        table = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    for workload in names or run.WORKLOAD_NAMES:
        table[workload] = {}
        for seed in SEEDS:
            build, rounds, _ = run.setup(workload, seed)
            answers = []
            for tasks in rounds:
                row = []
                for task in tasks:
                    answer = task.solve()
                    error = task.check(answer)
                    if error:
                        raise SystemExit(f"{workload} seed {seed}: {error}")
                    row.append(task.canon(answer))
                answers.append(row)
            table[workload][str(seed)] = answers
            print(f"{workload} seed {seed}: {sum(map(len, answers))} answers", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps(table, separators=(",", ":")) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
