"""Checked-in mutants: small breaks of the code that named tests must catch.

    python3 tools/mutants.py            # run every mutant
    python3 tools/mutants.py NAME ...   # run the named mutants

Run from anywhere; only the standard library and pytest are needed. Each
mutant is (name, file, old text, new text, tests that must fail). For each
one, ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory, the old text (which must occur exactly once) is replaced
there, and the named tests run with pytest against the copy. The mutant
is killed when they fail and survives when they pass. The named tests
first run once on an unchanged copy, which must pass, so that a broken
test cannot kill mutants. Exit status 0 when every mutant is killed, 1
otherwise.

A new fast path adds its mutants here: the cut made one step too eager,
the comparison that admits its boundary case flipped, and so on.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant(
        "order-check-admits-any-distinct-ids",
        "src/comsoc/elections.py",
        "if sorted(self) != list(range(len(self))):",
        "if len(set(self)) != len(self):",
        ("tests/test_elections.py::TestPreferenceOrder",),
    ),
    Mutant(
        "tally-counts-alternative-over-itself",
        "src/comsoc/elections.py",
        """            rows[alt] += below if count == 1 else below * count
            below |= unit[alt]
""",
        """            below |= unit[alt]
            rows[alt] += below if count == 1 else below * count
""",
        ("tests/test_elections.py::TestMajorityMatrix",),
    ),
    Mutant(
        "packed-field-width-admits-one-past-full",
        "src/comsoc/elections.py",
        "if n < 1 << (8 * b))",
        "if n <= 1 << (8 * b))",
        ("tests/test_elections.py::TestMajorityMatrix::test_matches_plain_majority_matrix_at_field_widths",),
    ),
    Mutant(
        "crossings-read-both-rows",
        "src/comsoc/structure.py",
        "{(a, b): rows[a][b] for",
        "{(a, b): rows[a][b] + rows[b][a] for",
        ("tests/test_structure.py::TestSingleCrossing::test_matches_plain_report",),
    ),
    Mutant(
        "crossings-skip-last-voter",
        "src/comsoc/structure.py",
        "for order in sequence:",
        "for order in sequence[:-1]:",
        ("tests/test_structure.py::TestSingleCrossing::test_matches_plain_report",),
    ),
    Mutant(
        "type-tally-ignores-count",
        "src/comsoc/elections.py",
        "scores[alt] += points * count",
        "scores[alt] += points",
        ("tests/test_elections.py::TestScoring::test_typed_scores_match_per_voter_tally",),
    ),
    Mutant(
        "approval-view-scores-one-deeper",
        "src/comsoc/control.py",
        "scores = _tally(types, (1,) * d, e.m)",
        "scores = _tally(types, (1,) * (d + 1), e.m)",
        ("tests/test_control.py::TestApprovalView",),
    ),
    Mutant(
        "rewrite-symmetry-start",
        "src/comsoc/bribery.py",
        "if rec(r - 1, j, [s - c",
        "if rec(r - 1, j + 1, [s - c",
        ("tests/test_bribery.py::TestRewriteSearch",),
    ),
    Mutant(
        "rewrite-slack-boundary",
        "src/comsoc/bribery.py",
        "if total < r * need:",
        "if total <= r * need:",
        ("tests/test_bribery.py::TestRewriteSearch",),
    ),
    Mutant(
        "swap-shift-bound-drops-budget-boundary",
        "src/comsoc/bribery.py",
        "del step[bisect_right(step, budget) :]",
        "del step[bisect_right(step, budget - 1) :]",
        ("tests/test_bribery.py::TestBoundedSearch",),
    ),
    Mutant(
        "swap-shift-bound-row-one-margin-low",
        "src/comsoc/bribery.py",
        "j = d - d_lo\n",
        "j = d - d_lo - 1\n",
        ("tests/test_bribery.py::TestRivalBound",),
    ),
    Mutant(
        "swap-shift-leaf-admits-rival-one-ahead",
        "src/comsoc/bribery.py",
        "tables[n] = [0]",
        "tables[n] = [0, 0]",
        ("tests/test_bribery.py::TestBoundedSearch",),
    ),
    Mutant(
        "swap-action-costs-nothing",
        "src/comsoc/bribery.py",
        "VoterAction(vi, order, cost, swaps=",
        "VoterAction(vi, order, 0, swaps=",
        ("tests/test_bribery.py::TestSwapBribery::test_plan_revalidates",),
    ),
    Mutant(
        "swap-weight-counts-concordant-pairs",
        "src/comsoc/bribery.py",
        "w[a * m + b] = table[_pair(a, b)]",
        "w[b * m + a] = table[_pair(a, b)]",
        ("tests/test_bribery.py::TestOptionTables",),
    ),
    Mutant(
        "shift-column-keeps-passed-points",
        "src/comsoc/bribery.py",
        "            column[order[q - t]] = alpha[q - t + 1]\n",
        "",
        ("tests/test_bribery.py::TestOptionTables",),
    ),
    Mutant(
        "dodgson-memo-cuts-cheaper-revisit",
        "src/comsoc/dodgson.py",
        "if seen is not None and seen <= cost:",
        "if seen is not None and seen >= cost:",
        ("tests/test_dodgson.py::TestMemo",),
    ),
    Mutant(
        "kemeny-bound-drops-equal-cost",
        "src/comsoc/kemeny.py",
        "if g <= ub and layer.get(s | bit, g + 1) > g:",
        "if g < ub and layer.get(s | bit, g + 1) > g:",
        ("tests/test_kemeny.py::TestDp",),
    ),
    Mutant(
        "kemeny-tied-order-takes-largest",
        "src/comsoc/kemeny.py",
        "c = next(c for c in left if",
        "c = next(c for c in reversed(left) if",
        ("tests/test_kemeny.py::TestDp::test_tied_components_match_dense_subset_dp",),
    ),
    Mutant(
        "cut-query-mass-from-piece-start",
        "src/comsoc/cake.py",
        "left = max(lo, a)",
        "left = lo",
        ("tests/test_cake.py::TestCutQuery",),
    ),
    Mutant(
        "axis-filter-drops-single-alternative",
        "src/comsoc/structure.py",
        "if axis[0] <= axis[-1]:",
        "if axis[0] < axis[-1]:",
        (
            "tests/test_structure.py::TestSinglePeaked::test_axes_match_full_walk",
            "tests/test_structure.py::TestDeletionDistance::test_voters_match_full_walk",
        ),
    ),
    Mutant(
        "voter-deletion-counts-type-as-one-voter",
        "src/comsoc/structure.py",
        "size += count",
        "size += 1",
        ("tests/test_structure.py::TestDeletionDistance::test_voters_match_per_voter_oracle",),
    ),
    Mutant(
        "wcs-accepts-negative-weight",
        "src/comsoc/circuits.py",
        'raise ValueError(f"weight k must be nonnegative, got {k}")',
        "return None",
        ("tests/test_circuits.py::TestWcs", "tests/test_cli.py::TestMabWcsCake"),
    ),
    Mutant(
        "cli-imports-a-solver-eagerly",
        "src/comsoc/cli.py",
        "from .errors import CapacityError\n",
        "from . import bribery  # noqa: F401\nfrom .errors import CapacityError\n",
        ("tests/test_cli.py::TestStartup",),
    ),
    Mutant(
        "emit-no-unless-yes",
        "src/comsoc/cli.py",
        'payload.get("yes") is False',
        'payload.get("yes") is not True',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "json-recursion-uncaught",
        "src/comsoc/cli.py",
        """    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
""",
        "    payload = json.loads(text)\n",
        ("tests/test_cli.py::test_deeply_nested_json_is_input_error",),
    ),
)


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "pyproject.toml"):
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, dest / part, ignore=ignore)
        else:
            shutil.copy2(source, dest / part)


def run_tests(tree, tests):
    """pytest's exit code for ``tests`` run against ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return proc.returncode


def apply(tree, mutant):
    target = tree / mutant.path
    text = target.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"old text found {count} times in {mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)

    with tempfile.TemporaryDirectory(prefix="comsoc-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        if run_tests(clean, tests) != 0:
            print("the named tests fail without any mutant; fix them first")
            return 1
        survivors = 0
        for m in chosen:
            tree = Path(tmp) / m.name
            shutil.copytree(clean, tree)
            problem = apply(tree, m)
            if problem is None:
                code = run_tests(tree, m.tests)
                # 1: tests failed. Anything else (collection error, no tests
                # run) does not show that the named tests catch the mutant.
                verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            else:
                verdict = f"SURVIVED ({problem})"
            survivors += verdict != "killed"
            print(f"{m.name}: {verdict}")
            shutil.rmtree(tree)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
