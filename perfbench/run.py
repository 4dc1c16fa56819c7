"""comsoc benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload aggregate-ic --seed 1 --seconds 20 --trace 0

Run from the repository root. The loop solves the workload's rounds one
task at a time, checks every answer (certificates always, the golden table
on the seeds it was recorded for) and stops after the first whole round
that ends past ``--seconds``. The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See README.md for what each metric means.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 4
IMPORT_PROBES = 7

WORKLOAD_NAMES = ("aggregate-ic", "aggregate-structured", "attack", "cli-small")
END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
FUNCTION_METRICS = (
    "kemeny.kemeny_dp.ms",
    "kemeny.kemeny_dp.calls",
    "kemeny.avg_pairwise_distance.ms",
    "elections.kendall_tau.calls",
    "dodgson.dodgson_score.ms",
    "dodgson.dodgson_score.calls",
    "dodgson.build_program.ms",
    "dodgson.group_types.ms",
    "elections.majority_matrix.ms",
    "elections.majority_matrix.calls",
    "elections.scoring_winners.ms",
    "bribery.swap_bribery.ms",
    "bribery.shift_bribery.ms",
    "bribery.unit_or_priced_bribery.ms",
    "bribery.min_cost_to_target.calls",
    "control.ccdv_fpt.ms",
    "control.relevance_split.calls",
    "control.approval_view.calls",
    "schemas.validate_json.ms",
)
LAYERS = (
    "elections",
    "kemeny",
    "dodgson",
    "control",
    "bribery",
    "structure",
    "circuits",
    "cake",
    "generators",
    "fileio",
    "schemas",
    "cli",
)
PER_LAYER = (
    FUNCTION_METRICS
    + (
        "elections.majority_matrix.repeat_frac",
        "fileio.parse.ms",
        "fileio.parse.bytes",
        "structure.ms",
        "circuits.ms",
        "cake.ms",
        "cli.main.self_ms",
        "cli.import_ms",
        "generators.generate.ms",
        "bench.solve.self_ms",
        "trace.overhead_frac",
    )
    + tuple(f"{layer}.failed" for layer in LAYERS)
)


def unit_of(metric):
    if metric.endswith("_ms") or metric.endswith(".ms"):
        return "ms"
    if metric.endswith(".calls") or metric.endswith(".failed"):
        return "count"
    if metric.endswith(".bytes"):
        return "B"
    return "frac"


def have_sources():
    return (ROOT / "src" / "comsoc" / "__init__.py").is_file()


def setup(workload, seed, tracer=None):
    """Import comsoc, build the golden-covered rounds and load the golden
    table. With a tracer, generation inside set-up is traced."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    if tracer is not None:
        tracer.install()
    build = workloads.WORKLOADS[workload]
    rounds = [build(seed, r) for r in range(workloads.POOL_ROUNDS[workload])]
    if tracer is not None:
        tracer.uninstall()
    golden = []
    if GOLDEN.is_file():
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle).get(workload, {}).get(str(seed), [])
    return build, rounds, golden


def verify(task, answer, expected):
    """Failure reason for one answer, or None."""
    error = task.check(answer)
    if error is None and expected is not _MISSING and task.canon(answer) != expected:
        return f"{task.family}: {task.canon(answer)!r} differs from golden {expected!r}"
    return error


_MISSING = object()
# Fields of one result row, as Loop._solve returns it.
RES_NS, RES_ERROR = 6, 7


class Loop:
    """Closed loop over the rounds of one workload and seed.

    Rounds past the set-up pool are built when reached. They are kept only
    when ``keep`` is set (a traced run replays the rounds of its untraced
    half), so that an untraced run's memory does not grow with its speed.
    """

    def __init__(self, seed, build, rounds, golden, keep=False):
        self.seed, self.build, self.rounds, self.golden = seed, build, rounds, golden
        self.keep = keep

    def round(self, r):
        if r < len(self.rounds):
            return self.rounds[r]
        tasks = self.build(self.seed, r)
        if self.keep:
            self.rounds.append(tasks)
        return tasks

    def run(self, seconds=None, n_rounds=None, tracer=None):
        """Solve whole rounds until ``seconds`` have passed (or exactly
        ``n_rounds`` rounds). Returns (rounds, wall seconds, results)."""
        results = []
        start = time.perf_counter()
        building = 0.0  # building rounds is input generation, not solving
        r = 0
        while True:
            t0 = time.perf_counter()
            tasks = self.round(r)
            building += time.perf_counter() - t0
            for index, task in enumerate(tasks):
                results.append(self._solve(r, index, task, tracer))
            r += 1
            if n_rounds is not None:
                if r >= n_rounds:
                    break
            elif time.perf_counter() - start - building >= seconds:
                break
        return r, time.perf_counter() - start - building, results

    def _solve(self, r, index, task, tracer):
        if tracer is not None:
            tracer.solve = len(tracer.solves)
            tracer.solves.append(task.family)
        error = None
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                answer = task.solve()
            else:
                with tracer.span("bench.solve"):
                    answer = task.solve()
        except Exception as err:  # a failed solve is counted, not fatal
            error = f"{task.family}: {type(err).__name__}: {err}"
        ns = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.solve = None
        if error is None:
            expected = self.golden[r][index] if r < len(self.golden) else _MISSING
            try:
                error = verify(task, answer, expected)
            except Exception as err:
                error = f"{task.family}: check raised {type(err).__name__}: {err}"
        return r, index, task.family, task.m, task.n, task.types, ns, error


def child_seconds(argv):
    """Wall seconds of a fresh interpreter running ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_probe(workload, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return float(out.strip().splitlines()[-1])


def write_rows(workload, seed, results):
    """One JSON row per instance: enough to see which instances moved."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"rows-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for r, index, family, m, n, types, ns, error in results:
            row = {
                "workload": workload,
                "round": r,
                "index": index,
                "family": family,
                "m": m,
                "n": n,
                "types": types,
                "ms": ns / 1e6,
                "verdict": "ok" if error is None else error,
            }
            handle.write(json.dumps(row) + "\n")


def end_to_end(workload, seed, own_setup, loop_wall, results):
    times = [res[RES_NS] / 1e6 for res in results]
    ok = sum(1 for res in results if res[RES_ERROR] is None)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [own_setup] + [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    return {
        "setup_s": statistics.median(setups),
        "solves_per_s": ok / loop_wall,
        "solve_ms_p50": statistics.median(times),
        "solve_ms_p90": statistics.quantiles(times, n=10)[8],
        "ok_frac": ok / len(results),
        "peak_rss_mb": peak_kib / 1024,
    }


def per_layer(workload, tracer, untraced_wall, traced_wall):
    from tracer import COUNTED, SOLVE, summarize

    solves = max(1, len(tracer.solves))
    summary = summarize(tracer.spans, keep=lambda s: s[SOLVE] is not None)
    metrics = {}
    for metric in FUNCTION_METRICS:
        name, kind = metric.rsplit(".", 1)
        if name in COUNTED:
            value = tracer.counts.get(name, 0) / solves
        else:
            row = summary.get(name, {"self_ns": 0, "calls": 0})
            value = row["self_ns"] / 1e6 / solves if kind == "ms" else row["calls"] / solves
        metrics[metric] = value

    def module_ms(prefix):
        return sum(row["self_ns"] for n, row in summary.items() if n.startswith(prefix)) / 1e6 / solves

    mm = summary.get("elections.majority_matrix", {"calls": 0, "repeat": 0})
    metrics["elections.majority_matrix.repeat_frac"] = mm["repeat"] / mm["calls"] if mm["calls"] else 0.0
    metrics["fileio.parse.ms"] = module_ms("fileio.parse_")
    metrics["fileio.parse.bytes"] = sum(
        row["attr"] for n, row in summary.items() if n.startswith("fileio.parse_")
    ) / solves
    for module in ("structure", "circuits", "cake"):
        metrics[f"{module}.ms"] = module_ms(f"{module}.")
    metrics["cli.main.self_ms"] = module_ms("cli.main")
    metrics["bench.solve.self_ms"] = module_ms("bench.solve")
    metrics["generators.generate.ms"] = sum(
        row["self_ns"]
        for n, row in summarize(tracer.spans, keep=lambda s: s[SOLVE] is None).items()
        if n == "generators.generate"
    ) / 1e6
    metrics["cli.import_ms"] = 0.0
    if workload == "cli-small":
        bare = [child_seconds([sys.executable, "-c", "pass"]) for _ in range(IMPORT_PROBES)]
        full = [child_seconds([sys.executable, "-c", "import comsoc.cli"]) for _ in range(IMPORT_PROBES)]
        metrics["cli.import_ms"] = (statistics.median(full) - statistics.median(bare)) * 1e3
    metrics["trace.overhead_frac"] = 1 - untraced_wall / traced_wall
    everything = summarize(tracer.spans)
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = sum(
            row["failed"] for n, row in everything.items() if n.startswith(f"{layer}.")
        )
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not have_sources():
        print(f"comsoc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        print(time.perf_counter() - T0)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    build, rounds, golden = setup(args.workload, args.seed, tracer)
    own_setup = time.perf_counter() - T0
    # Set-up objects live for the whole run; keep the cyclic collector from
    # rescanning them during timed solves.
    gc.collect()
    gc.freeze()
    loop = Loop(args.seed, build, rounds, golden, keep=bool(args.trace))

    if args.trace:
        n_rounds, untraced_wall, results = loop.run(seconds=args.seconds / 2)
        tracer.install()
        try:
            _, traced_wall, traced = loop.run(n_rounds=n_rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        results += traced
        WORK.mkdir(parents=True, exist_ok=True)
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(tracer.dumps(), encoding="utf-8")
        metrics = per_layer(args.workload, tracer, untraced_wall, traced_wall)
        names = PER_LAYER
    else:
        _, wall, results = loop.run(seconds=args.seconds)
        write_rows(args.workload, args.seed, results)
        metrics = end_to_end(args.workload, args.seed, own_setup, wall, results)
        names = tuple(END_TO_END)

    failures = [res[RES_ERROR] for res in results if res[RES_ERROR] is not None]
    for error in failures[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    units = END_TO_END if not args.trace else {m: unit_of(m) for m in PER_LAYER}
    report = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
