#!/usr/bin/env python3
"""Replay benchmark cases in process and compare two replays number by number.

    python3 scripts/replay_cases.py run SRC_ROOT OUT.json DIR... [--only REGEX]
    python3 scripts/replay_cases.py compare A.json B.json

``run`` imports algebroid from SRC_ROOT/src only, and refuses any other copy,
as benchmark/run.py does. It calls ``algebroid.cli.main`` on the argv of every
DIR/cases/*.argv, where each DIR is a benchmark/out/<workload>-seed<n>-trace<t>
directory, and writes each case's exit code and standard output to OUT.json.
Problem files are read from DIR/cases, with DIR made absolute, so replays of
one DIR against two source trees see the same inputs however DIR is typed.
With --only it replays only the cases whose stem matches REGEX (re.search),
such as ``-k2-j`` for one slot.

``compare`` prints the number of cases, how many have byte-identical output,
the exit-code differences, the tally of exit codes on each side (a is A.json,
b is B.json), the number of non-numeric differences with one line per key
path (the case and the list indices dropped): the first case's full path,
then "and N more at KEY" when there are more, the largest |dx| / max(1, |x|)
over the numbers of the JSON reports, and every key path whose number moves
by more than 1e-13 * max(1, |x|), with the count of cases in which it moves.
An audit's discrepancies (results.pairs[].discrepancy and
results.max_discrepancy), each a difference of two c values, are measured
against max(1, the largest |c value| of the same report) in place of
max(1, |x|): the scale of the numbers whose rounding they carry.
Two strings that differ only in their decimal floats (those written with a
"." or an exponent, such as the digits of a period in a refusal message)
are compared float by float, as report numbers are; an integer stays part of
the text, so "generator 1" against "generator 2" is a non-numeric difference.
It exits 1 on any exit-code or non-numeric difference, or on such a move.
Standard library only.
"""

import collections
import contextlib
import io
import json
import re
import shlex
import signal
import sys
from pathlib import Path

REL_TOL = 1e-13
# a decimal float inside a string: digits with a fraction, an exponent or both
FLOAT = re.compile(r"[-+]?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)")


def _import_cli(src_root: Path):
    src = (src_root / "src").resolve()
    if not (src / "algebroid" / "cli.py").is_file():
        raise SystemExit(f"replay: no algebroid sources at {src}")
    sys.path.insert(0, str(src))
    import algebroid.cli

    if Path(algebroid.cli.__file__).resolve().parent != src / "algebroid":
        raise SystemExit(f"replay: algebroid imported from {algebroid.cli.__file__}")
    return algebroid.cli


def case_argvs(dirs: list, only: str | None = None):
    """(DIR name/case stem, argv of algebroid.cli.main) for every
    DIR/cases/*.argv whose stem matches the regex only (re.search) when it
    is given, each problem file read from DIR/cases."""
    for directory in (Path(d).resolve() for d in dirs):
        for argv_file in sorted((directory / "cases").glob("*.argv")):
            if only is not None and not re.search(only, argv_file.stem):
                continue
            _, *argv = shlex.split(argv_file.read_text())
            argv = [str(argv_file.parent / Path(a).name)
                    if (argv_file.parent / Path(a).name).is_file() else a for a in argv]
            yield f"{directory.name}/{argv_file.stem}", argv


def replay(cli, dirs: list, only: str | None = None) -> dict:
    cases = {}
    for case, argv in case_argvs(dirs, only):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is an outcome to compare
                code = f"raised:{type(exc).__name__}"
        cases[case] = {"exit": code, "stdout": out.getvalue()}
    return cases


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _scales(report) -> dict:
    """The scale of each key path that is not max(1, |x|): for an audit
    report, its discrepancies' max(1, the largest |c value|)."""
    results = report.get("results") if isinstance(report, dict) else None
    if not isinstance(results, dict) or "c_values" not in results:
        return {}
    scale = max([1.0] + [abs(complex(*c)) for c in results["c_values"]])
    return {"results.pairs.discrepancy": scale, "results.max_discrepancy": scale}


def _diff(a, b, where: str, found: dict, case: str, key: str = "",
          scales: dict | None = None) -> None:
    """Record in found the largest relative number move, the cases in which
    each key path moves by more than REL_TOL, and the full path of every
    non-numeric difference between two parsed reports under its key path.
    key is where without the case, the list indices and the float indices
    within a string, whose floats are numbers when its text is the same. A
    number moves relative to scales[key] when there is one (_scales), else
    to max(1, |x|)."""
    scales = scales or {}
    if _is_number(a) and _is_number(b):
        rel = abs(a - b) / scales.get(key, max(1.0, abs(a)))
        if rel > found["largest"][0]:
            found["largest"] = (rel, where)
        if rel > REL_TOL:
            found["moved"].setdefault(key, set()).add(case)
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for name in a:
            _diff(a[name], b[name], f"{where}.{name}", found, case,
                  f"{key}.{name}" if key else name, scales)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{where}[{i}]", found, case, key, scales)
    elif isinstance(a, str) and isinstance(b, str) and FLOAT.split(a) == FLOAT.split(b):
        for i, (x, y) in enumerate(zip(FLOAT.findall(a), FLOAT.findall(b))):
            _diff(float(x), float(y), f"{where}<float {i}>", found, case, key, scales)
    elif a != b or type(a) is not type(b):
        found["non_numeric"].setdefault(key, []).append(where)


def exit_tally(cases: dict) -> str:
    """How many cases exit with each code, e.g. ``0: 1326, 19: 144``; codes
    are numbers or ``raised:<type>`` and sort numbers first."""
    tally = collections.Counter(case["exit"] for case in cases.values())
    return ", ".join(f"{code}: {n}" for code, n in
                     sorted(tally.items(), key=lambda item: (isinstance(item[0], str), item[0])))


def compare(a: dict, b: dict) -> dict:
    found = {"cases": len(a.keys() | b.keys()), "identical": 0, "exit": [],
             "non_numeric": {}, "largest": (0.0, None), "moved": {}}
    for case in sorted(a.keys() | b.keys()):
        if case not in a or case not in b:
            found["non_numeric"].setdefault("replayed on one side only", []).append(
                f"{case}: replayed on one side only")
            continue
        x, y = a[case], b[case]
        if x["exit"] != y["exit"]:
            found["exit"].append(f"{case}: {x['exit']} -> {y['exit']}")
        if x["stdout"] == y["stdout"]:
            found["identical"] += 1
            continue
        try:
            report = json.loads(x["stdout"])
            _diff(report, json.loads(y["stdout"]), case, found, case, scales=_scales(report))
        except json.JSONDecodeError:
            found["non_numeric"].setdefault("stdout is not JSON", []).append(
                f"{case}: stdout is not JSON")
    return found


def main(argv: list) -> int:
    only = None
    if len(argv) >= 2 and argv[-2] == "--only":
        argv, only = argv[:-2], argv[-1]
    if len(argv) >= 4 and argv[0] == "run":
        cli = _import_cli(Path(argv[1]))
        Path(argv[2]).write_text(json.dumps(replay(cli, argv[3:], only), indent=1))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        a, b = (json.loads(Path(f).read_text()) for f in argv[1:])
        found = compare(a, b)
        rel, where = found["largest"]
        print(f"cases {found['cases']}, byte-identical {found['identical']}")
        print(f"exit-code differences {len(found['exit'])}", *found["exit"], sep="\n  ")
        print(f"exit codes in a: {exit_tally(a)}", f"exit codes in b: {exit_tally(b)}", sep="\n")
        non_numeric = found["non_numeric"]
        print(f"non-numeric differences {sum(map(len, non_numeric.values()))}",
              *(paths[0] + (f" and {len(paths) - 1} more at {key}" if len(paths) > 1 else "")
                for key, paths in non_numeric.items()), sep="\n  ")
        print(f"largest |dx| / max(1, |x|) {rel:.3e}" + (f" at {where}" if where else ""))
        moved = found["moved"]
        print(f"key paths moved by more than {REL_TOL:g} * max(1, |x|) {len(moved)}",
              *(f"{key}: {len(cases)} cases" for key, cases in sorted(moved.items())),
              sep="\n  ")
        return int(bool(found["exit"] or found["non_numeric"] or moved))
    raise SystemExit(__doc__)


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # piped to head: stop quietly
    sys.exit(main(sys.argv[1:]))
