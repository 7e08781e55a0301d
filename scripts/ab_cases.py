#!/usr/bin/env python3
"""Time two source trees against each other on benchmark cases, in one process.

    python3 scripts/ab_cases.py SRC_A SRC_B DIR... [--reps N] [--slots] [--only REGEX]

Imports algebroid from SRC_A/src and from SRC_B/src, each only from there (as
``replay_cases.py run`` does), and keeps each tree's algebroid modules apart:
before every call the modules of the tree that runs it are put into
sys.modules. Each DIR is a benchmark/out/<workload>-seed<n>-trace<t>
directory, and its cases are the argvs of DIR/cases/*.argv, or with --only
those whose stem matches REGEX (re.search). Each of the N
reps (default 3) runs every case on both trees, A first on even cases of
even reps and B first on the others, and times each ``algebroid.cli.main``
call alone.

Prints per workload the number of cases, the median seconds of one
operation on A and on B, the median over the cases of the ratio of a case's
median seconds on B to those on A, and how many cases give the same exit
code and standard output on both trees in every rep. With --slots it prints
the same medians and ratio under each workload for each of its slots, a
slot being a case stem without its NNN-NN- prefix (e.g. audit-k2-2pts-a),
so that a claim can name the cost class it moves.

It is for quick sizing: a claimed gain is measured with benchmark/run.py and
scripts/bench_summary.py. Standard library only.
"""

import argparse
import contextlib
import io
import re
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import replay_cases  # noqa: E402


def _ours(name: str) -> bool:
    return name == "algebroid" or name.startswith("algebroid.")


def _swap(modules: dict) -> None:
    """Put one tree's algebroid modules into sys.modules, and no others."""
    for name in [name for name in sys.modules if _ours(name)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load(src_root: Path):
    """algebroid.cli of SRC_ROOT/src and every algebroid module that import
    loaded, by name; sys.path is left as it was."""
    _swap({})
    path = list(sys.path)
    cli = replay_cases._import_cli(src_root)
    sys.path[:] = path
    return cli, {name: module for name, module in sys.modules.items() if _ours(name)}


def run(tree, argv: list) -> tuple[float, tuple]:
    """Seconds of one cli.main call on a loaded tree, and its outcome (exit
    code, standard output)."""
    cli, modules = tree
    _swap(modules)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is an outcome to compare
            code = f"raised:{type(exc).__name__}"
        seconds = time.perf_counter() - start
    modules.update((name, module) for name, module in sys.modules.items() if _ours(name))
    return seconds, (code, out.getvalue())


def compare(trees: tuple, dirs: list, reps: int, only: str | None = None) -> dict:
    """Per workload: the seconds of every call on A and on B, per case, and
    the cases whose outcomes differ between the trees in some rep."""
    cases = list(replay_cases.case_argvs(dirs, only))
    found: dict = {}
    for rep in range(reps):
        for n, (case, argv) in enumerate(cases):
            entry = found.setdefault(case.split("-seed")[0],
                                     {"a": {}, "b": {}, "differ": set()})
            order = (0, 1) if (n + rep) % 2 == 0 else (1, 0)
            outcomes = [None, None]
            for side in order:
                seconds, outcomes[side] = run(trees[side], argv)
                entry["ab"[side]].setdefault(case, []).append(seconds)
            if outcomes[0] != outcomes[1]:
                entry["differ"].add(case)
    return found


def _slot(case: str) -> str:
    """The slot of a case DIR name/stem: the stem without its NNN-NN- prefix."""
    return re.sub(r"^\d+-\d+-", "", case.rsplit("/", 1)[-1])


def _medians(a: dict, b: dict, cases: list) -> str:
    ratio = statistics.median(statistics.median(b[c]) / statistics.median(a[c]) for c in cases)
    return (f"A median {statistics.median(s for c in cases for s in a[c]):.6f} s, "
            f"B median {statistics.median(s for c in cases for s in b[c]):.6f} s, "
            f"per-case B/A median {ratio:.4f}")


def summary(found: dict, slots: bool = False) -> list:
    lines = []
    for workload, entry in sorted(found.items()):
        a, b = entry["a"], entry["b"]
        lines.append(f"{workload}: cases {len(a)}, {_medians(a, b, list(a))}, "
                     f"identical {len(a) - len(entry['differ'])} of {len(a)}")
        by_slot: dict = {}
        for case in a if slots else ():
            by_slot.setdefault(_slot(case), []).append(case)
        for slot, cases in sorted(by_slot.items()):
            lines.append(f"  {slot}: cases {len(cases)}, {_medians(a, b, cases)}")
    return lines


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("dirs", nargs="+")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--slots", action="store_true",
                        help="also summarize each slot of a workload")
    parser.add_argument("--only", help="time only the cases whose stem matches this regex")
    args = parser.parse_args(replay_cases.join_only(argv))
    trees = load(args.src_a), load(args.src_b)
    print(*summary(compare(trees, args.dirs, args.reps, args.only), args.slots), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
