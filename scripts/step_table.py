#!/usr/bin/env python3
"""Tracker steps of ``residues --contour-check`` on random equations of larger
k and coefficient degree, one row per (k, degree). Run from the repo root:

    PYTHONPATH=src python3 scripts/step_table.py [--only K,DEG]

After ``random.seed(7)`` the equations are drawn for the rows of ROWS in
order: for each of the k coefficients A_0, ..., A_(k-1) of
W^k + A_(k-1) W^(k-1) + ... + A_0, and each power z^e with e <= degree, the
real and then the imaginary part of its coefficient, each
``random.randint(-3, 3)``. Each row runs ``algebroid.cli.main`` once in this
process and prints k, the degree, the number of ``SegmentTracker._step``
calls (accepted steps), the seconds and the exit code. With --only one row
runs; the rows before it are still drawn, so its equation is the same.
Step counts are deterministic; the seconds depend on the host.
"""

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
import time
from pathlib import Path

from algebroid import cli
from algebroid.tracker import SegmentTracker

ROWS = ((4, 3), (5, 3), (6, 3), (6, 5), (8, 3), (8, 5))
SEED = 7


def problems() -> list[tuple[tuple[int, int], list[str]]]:
    """((k, degree), coefficient strings) of every row of ROWS, in order."""
    rng = random.Random(SEED)
    out = []
    for k, degree in ROWS:
        coeffs = [" + ".join(f"({rng.randint(-3, 3)}+{rng.randint(-3, 3)}*i)*z^{e}"
                             for e in range(degree + 1))
                  for _ in range(k)]
        out.append(((k, degree), coeffs))
    return out


def run_row(coeffs: list[str]) -> tuple[int, float, int]:
    """The _step calls, seconds and exit code of one contour check."""
    steps = 0
    step = SegmentTracker._step

    def counting(self, t_target):
        nonlocal steps
        steps += 1
        return step(self, t_target)

    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "problem.json"
        problem.write_text(json.dumps({"k": len(coeffs), "coefficients": coeffs}))
        SegmentTracker._step = counting
        try:
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["residues", str(problem), "--contour-check"])
            seconds = time.perf_counter() - started
        finally:
            SegmentTracker._step = step
    return steps, seconds, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="K,DEG", help="run one row, such as 6,5")
    args = parser.parse_args(argv)
    only = tuple(int(v) for v in args.only.split(",")) if args.only else None
    if only is not None and only not in ROWS:
        parser.error(f"--only must be one of {', '.join(f'{k},{d}' for k, d in ROWS)}")
    print("k degree steps seconds exit")
    for (k, degree), coeffs in problems():
        if only in (None, (k, degree)):
            steps, seconds, code = run_row(coeffs)
            print(f"{k} {degree} {steps} {seconds:.2f} {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
