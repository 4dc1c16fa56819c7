"""Self-test of the answer checks: true answers pass, corrupted ones fail.

    python3 perfbench/selftest.py

Exits 0 when every genuine answer passes its check and every corrupted
answer is flagged, 1 otherwise.
"""

import dataclasses
import json
import random
import sys

import run

sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(label, task, answer, flagged, expected=run._MISSING):
    error = run.verify(task, answer, expected)
    if bool(error) != flagged:
        FAILURES.append(f"{label}: {'not flagged' if flagged else error}")
    print(f"{'flagged' if error else 'passed '}  {label}: {error or ''}")


def election(model, m, n, seed):
    return workloads._election(model, m, n, random.Random(seed))


def kemeny_cases():
    e, orders = election("impartial-culture", 6, 11, 3)
    task = workloads._kemeny_task("ic", e, orders)
    ranking, score, d_a = answer = task.solve()
    expect("kemeny answer", task, answer, False)
    expect("kemeny score + 1", task, (ranking, score + 1, d_a), True)
    expect("kemeny d_a + 1", task, (ranking, score, d_a + 1), True)
    w = checks.tally(orders, 6)
    for i in range(5):
        a, b = ranking[i], ranking[i + 1]
        if w[a][b] > w[b][a]:
            worse = ranking[:i] + (b, a) + ranking[i + 2 :]
            expect("kemeny swapped pair", task, (worse, checks.kemeny_score(w, worse), d_a), True)
            break
    expect("kemeny golden mismatch", task, answer, True, expected=[list(ranking), score + 1, d_a])


def dodgson_cases():
    e, orders = election("impartial-culture", 5, 9, 4)
    task = workloads._dodgson_task("ic", e, orders)
    answer = task.solve()
    expect("dodgson answer", task, answer, False)
    worst = max(range(5), key=lambda c: answer[c].score)
    bad = list(answer)
    bad[worst] = dataclasses.replace(answer[worst], score=answer[worst].score - 1)
    expect("dodgson score - 1", task, bad, True)
    idle = tuple((sum(row),) + (0,) * (len(row) - 1) for row in answer[worst].lifts)
    bad[worst] = dataclasses.replace(answer[worst], lifts=idle, score=0)
    expect("dodgson no lifts", task, bad, True)


def bribery_cases():
    for flavor, m, n in (("shift", 5, 7), ("swap", 4, 4), ("priced", 5, 8)):
        e, orders = election("impartial-culture", m, n, 5)
        open_, opt, below = workloads._bribery_tasks(flavor, e, orders, random.Random(6))
        plans = []
        for task in (open_, opt, below):
            plans.append(task.solve())
            expect(f"{flavor} {task.family} answer", task, plans[-1], False)
        limit, plan = plans[0]
        expect(f"{flavor} cost - 1", open_, (limit, dataclasses.replace(plan, cost=plan.cost - 1)), True)
        expect(f"{flavor} plan below the optimum", below, plans[1], True)
        expect(f"{flavor} golden mismatch", open_, plans[0], True, expected=plan.cost + 1)


def ccdv_cases():
    e, orders = election("impartial-culture", 8, 20, 7)
    tasks = workloads._ccdv_tasks(e, orders)
    for task in tasks:
        expect(f"{task.family} answer", task, task.solve(), False)
    lowest = tasks[-1]
    expect("ccdv empty witness for the lowest scorer", lowest, [], True)
    verdicts = {2: 1}
    error = checks.check_monotone(verdicts, 3, None)
    print(f"{'flagged' if error else 'passed '}  ccdv no after a smaller witness: {error or ''}")
    if not error:
        FAILURES.append("ccdv monotonicity not flagged")


def cli_cases():
    tasks = {t.family: t for t in workloads.cli_small(1, 0)}
    task = tasks["cli/kemeny"]
    code, out = answer = task.solve()
    expect("cli kemeny answer", task, answer, False)
    payload = json.loads(out)
    payload["score"] += 1
    expect("cli kemeny score + 1", task, (code, json.dumps(payload)), True)
    expect("cli exit code 3", task, (3, out), True)


def main():
    if not run.have_sources():
        print("comsoc sources not found", file=sys.stderr)
        return 2
    for cases in (kemeny_cases, dodgson_cases, bribery_cases, ccdv_cases, cli_cases):
        cases()
    for failure in FAILURES:
        print(f"SELF-TEST FAILURE {failure}", file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
