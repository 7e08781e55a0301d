#!/usr/bin/env python3
"""Time cold interpreter starts of two source trees against each other.

    python3 scripts/cold_start.py SRC_A SRC_B DIR... [--pairs N]

Each command runs as a fresh process with PYTHONPATH=SRC/src, from SRC, in
the caller's environment: ``python -c "import algebroid.cli"``, the start
benchmark/run.py times as setup_s, then ``python -m algebroid ARGV`` for the
first case of each subcommand found in the DIRs, each DIR a
benchmark/out/<workload>-seed<n>-trace<t> directory (cases as
``replay_cases.py run`` reads them). Every command starts once on each tree
untimed, then N pairs (default 10) of timed starts, A first in even pairs
and B first in odd ones.

Prints one line per command: the median raw wall seconds on A and on B, the
ratio of B's median to A's, the number of pairs in which B was faster, and
the exit codes on A and B. The times are not scaled to a reference host
speed as setup_s is, so they are only comparable within one run; a host
that writes no bytecode (PYTHONDONTWRITEBYTECODE=1) compiles every module
each start, and so does this script under that variable. Standard library
only.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import replay_cases  # noqa: E402


def commands(dirs: list) -> list:
    """(label, interpreter arguments): the import, then the first case of
    each subcommand in the DIRs, in the order they are found."""
    found = {"import algebroid.cli": ["-c", "import algebroid.cli"]}
    for _, argv in replay_cases.case_argvs(dirs):
        found.setdefault(argv[0], ["-m", "algebroid", *argv])
    return list(found.items())


def start(src_root: Path, args: list) -> tuple[float, int]:
    """Wall seconds and exit code of one fresh interpreter on a tree."""
    env = dict(os.environ, PYTHONPATH=str(src_root / "src"))
    began = time.perf_counter()
    code = subprocess.run([sys.executable, *args], env=env, cwd=src_root,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    return time.perf_counter() - began, code


def compare(trees: tuple, dirs: list, pairs: int) -> list:
    lines = []
    for label, args in commands(dirs):
        codes = [start(tree, args)[1] for tree in trees]
        times: tuple = ([], [])
        for n in range(pairs):
            for side in (0, 1) if n % 2 == 0 else (1, 0):
                times[side].append(start(trees[side], args)[0])
        a, b = (statistics.median(t) for t in times)
        wins = sum(tb < ta for ta, tb in zip(*times))
        lines.append(f"{label}: A median {a:.4f} s, B median {b:.4f} s, B/A {b / a:.3f}, "
                     f"B faster in {wins} of {pairs} pairs, exit {codes[0]}/{codes[1]}")
    return lines


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("dirs", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = tuple(tree.resolve() for tree in (args.src_a, args.src_b))
    for tree in trees:
        if not (tree / "src" / "algebroid" / "cli.py").is_file():
            raise SystemExit(f"cold_start: no algebroid sources at {tree / 'src'}")
    print(*compare(trees, args.dirs, args.pairs), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
