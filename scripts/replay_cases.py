#!/usr/bin/env python3
"""Replay benchmark cases in process and compare two replays number by number.

    python3 scripts/replay_cases.py run SRC_ROOT OUT.json DIR...
    python3 scripts/replay_cases.py compare A.json B.json

``run`` imports algebroid from SRC_ROOT/src only, and refuses any other copy,
as benchmark/run.py does. It calls ``algebroid.cli.main`` on the argv of every
DIR/cases/*.argv, where each DIR is a benchmark/out/<workload>-seed<n>-trace<t>
directory, and writes each case's exit code and standard output to OUT.json.
Problem files are read from DIR/cases, so replays of one DIR against two
source trees see the same inputs.

``compare`` prints the number of cases, how many have byte-identical output,
the exit-code and non-numeric differences, and the largest
|dx| / max(1, |x|) over the numbers of the JSON reports. It exits 1 on any
exit-code or non-numeric difference, or on a number that moves by more than
1e-13 * max(1, |x|). Standard library only.
"""

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

REL_TOL = 1e-13


def _import_cli(src_root: Path):
    src = (src_root / "src").resolve()
    if not (src / "algebroid" / "cli.py").is_file():
        raise SystemExit(f"replay: no algebroid sources at {src}")
    sys.path.insert(0, str(src))
    import algebroid.cli

    if Path(algebroid.cli.__file__).resolve().parent != src / "algebroid":
        raise SystemExit(f"replay: algebroid imported from {algebroid.cli.__file__}")
    return algebroid.cli


def replay(cli, dirs: list) -> dict:
    cases = {}
    for directory in map(Path, dirs):
        for argv_file in sorted((directory / "cases").glob("*.argv")):
            _, *argv = shlex.split(argv_file.read_text())
            argv = [str(argv_file.parent / Path(a).name)
                    if (argv_file.parent / Path(a).name).is_file() else a for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit) as exc:  # a crash is an outcome to compare
                    code = f"raised:{type(exc).__name__}"
            cases[f"{directory.name}/{argv_file.stem}"] = {"exit": code, "stdout": out.getvalue()}
    return cases


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _diff(a, b, where: str, found: dict) -> None:
    """Record in found the largest relative number move and every
    non-numeric difference between two parsed reports."""
    if _is_number(a) and _is_number(b):
        rel = abs(a - b) / max(1.0, abs(a))
        if rel > found["largest"][0]:
            found["largest"] = (rel, where)
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _diff(a[key], b[key], f"{where}.{key}", found)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{where}[{i}]", found)
    elif a != b or type(a) is not type(b):
        found["non_numeric"].append(where)


def compare(a: dict, b: dict) -> dict:
    found = {"cases": len(a.keys() | b.keys()), "identical": 0, "exit": [],
             "non_numeric": [], "largest": (0.0, None)}
    for case in sorted(a.keys() | b.keys()):
        if case not in a or case not in b:
            found["non_numeric"].append(f"{case}: replayed on one side only")
            continue
        x, y = a[case], b[case]
        if x["exit"] != y["exit"]:
            found["exit"].append(f"{case}: {x['exit']} -> {y['exit']}")
        if x["stdout"] == y["stdout"]:
            found["identical"] += 1
            continue
        try:
            _diff(json.loads(x["stdout"]), json.loads(y["stdout"]), case, found)
        except json.JSONDecodeError:
            found["non_numeric"].append(f"{case}: stdout is not JSON")
    return found


def main(argv: list) -> int:
    if len(argv) >= 4 and argv[0] == "run":
        cli = _import_cli(Path(argv[1]))
        Path(argv[2]).write_text(json.dumps(replay(cli, argv[3:]), indent=1))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        found = compare(*(json.loads(Path(f).read_text()) for f in argv[1:]))
        rel, where = found["largest"]
        print(f"cases {found['cases']}, byte-identical {found['identical']}")
        print(f"exit-code differences {len(found['exit'])}", *found["exit"], sep="\n  ")
        print(f"non-numeric differences {len(found['non_numeric'])}",
              *found["non_numeric"], sep="\n  ")
        print(f"largest |dx| / max(1, |x|) {rel:.3e}" + (f" at {where}" if where else ""))
        return int(bool(found["exit"] or found["non_numeric"]) or rel > REL_TOL)
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
