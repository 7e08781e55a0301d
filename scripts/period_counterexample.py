#!/usr/bin/env python3
"""Why zero finite residues are not enough: W^2 - (1 + z^2) = 0.

Both singular elements (at +-i) have residue zero, yet sqrt(1+z^2) behaves
like z + 1/(2z) at infinity, so a large loop picks up the period pi*i and
the would-be antiderivative coefficients fail to be single-valued. The
builder refuses, naming the generator, the sheet and the period of the
closed lift that does not close up.

    python3 scripts/period_counterexample.py
"""

import math

from algebroid import (
    SurfacePoint,
    build_antiderivative,
    closed_loop_integral,
    loop_path,
    residue_theorem_check,
)
from algebroid.errors import SingleValuednessViolation
from algebroid.surface import DefiningEquation


def main():
    eq = DefiningEquation.from_strings(["0", "-(1+z^2)"])
    print("equation: W^2 - (1 + z^2) = 0")
    print(f"critical points: {[p.location for p in eq.critical().points]}")

    for center in (1j, -1j):
        for check in residue_theorem_check(eq, center):
            print(f"  residue at {center}: |{abs(check.residue):.3e}|, "
                  f"loop discrepancy {check.discrepancy:.3e}")

    loop = loop_path(0, 3.0, 1)
    period = closed_loop_integral(eq, SurfacePoint(3.0, math.sqrt(10.0)), loop)
    print(f"\none-turn loop of radius 3: period = {period.value:.12g}")
    print(f"  versus pi*i            = {1j * math.pi:.12g}")

    print("\nattempting antiderivative construction:")
    try:
        build_antiderivative(eq, SurfacePoint(0, 1))
        print("  unexpectedly succeeded")
    except SingleValuednessViolation as exc:
        print(f"  refused: {exc}")
        print(f"  period {exc.period:.12g}")
        print(f"  versus -pi*i = {-1j * math.pi:.12g}")
        print("  (all finite residues vanish, but a closed lift around both "
              "branch points picks up the period at infinity)")


if __name__ == "__main__":
    main()
