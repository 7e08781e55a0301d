#!/usr/bin/env python3
"""Profile algebroid.cli.main alone over benchmark cases.

    python3 scripts/profile_cases.py SRC_ROOT DIR... [--top N] [--sort KEY] [--callers REGEX]
                                     [--counts REGEX] [--only REGEX]

Imports algebroid from SRC_ROOT/src only, as ``replay_cases.py run`` does,
and runs cProfile around each ``algebroid.cli.main`` call on the argv of
every DIR/cases/*.argv, where each DIR is a
benchmark/out/<workload>-seed<n>-trace<t> directory. Only those calls are
profiled: not the benchmark's calibration kernel, not the imports. Prints
the number of cases, each case whose call raised, and the top N functions
(default 25) by self time, or with --sort cumulative by the time spent in
them and all they call, with --callers the callers of every function
whose own name matches REGEX, and with --counts the calls per case of every
such function (both re.search on the name alone), such as ``^_read$``.
With --only it profiles only the cases whose stem matches REGEX
(re.search). With no case it prints ``cases 0`` and exits 1.
Standard library only.
"""

import argparse
import contextlib
import cProfile
import io
import pstats
import re
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import replay_cases  # noqa: E402


def profile(cli, dirs: list, only: str | None = None) -> tuple[int, list, cProfile.Profile]:
    """The number of cases, the cases whose cli.main call raised, and the
    profile of all their cli.main calls."""
    prof, count, raised = cProfile.Profile(), 0, []
    for case, argv in replay_cases.case_argvs(dirs, only):
        with contextlib.redirect_stdout(io.StringIO()):
            prof.enable()
            try:
                cli.main(argv)
            except (Exception, SystemExit) as exc:  # profiled like any outcome, and named
                raised.append(f"{case}: {type(exc).__name__}")
            finally:
                prof.disable()
        count += 1
    return count, raised, prof


def print_callers(stats: pstats.Stats, pattern: str) -> None:
    """pstats' callers listing of every profiled function whose name
    matches pattern, in the stats' sort order; nothing when none does.
    Stats.print_callers would match the whole file:line(name) string."""
    regex = re.compile(pattern)
    funcs = [func for func in stats.fcn_list if regex.search(func[2])]
    if not funcs:
        return
    width = 2 + max(len(pstats.func_std_string(func)) for func in funcs)
    stats.print_call_heading(width, "was called by...")
    for func in funcs:
        stats.print_call_line(width, func, stats.stats[func][4], "<-")
    print(file=stats.stream)


def call_counts(stats: pstats.Stats, pattern: str, cases: int) -> list[tuple[str, float]]:
    """(file:line(name), calls per case) of every profiled function whose
    name matches pattern, in that order."""
    regex = re.compile(pattern)
    return sorted((f"{file}:{line}({name})", calls / cases)
                  for (file, line, name), (_, calls, *_) in stats.stats.items()
                  if regex.search(name))


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_root", type=Path)
    parser.add_argument("dirs", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    parser.add_argument("--callers")
    parser.add_argument("--counts")
    parser.add_argument("--only")
    args = parser.parse_args(argv)
    count, raised, prof = profile(replay_cases._import_cli(args.src_root), args.dirs, args.only)
    if not count:  # pstats has no profile to read
        print("cases 0")
        return 1
    print(f"cases {count}, raised {len(raised)}", *raised, sep="\n  ")
    stats = pstats.Stats(prof, stream=sys.stdout).strip_dirs().sort_stats(args.sort)
    stats.print_stats(args.top)
    if args.callers:
        print_callers(stats, args.callers)
    if args.counts:
        print(f"calls per case of the functions named like {args.counts!r}")
        for where, per_case in call_counts(stats, args.counts, count):
            print(f"{per_case:14.3f}  {where}")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # piped to head: stop quietly
    sys.exit(main(sys.argv[1:]))
