#!/usr/bin/env python3
"""Profile algebroid.cli.main alone over benchmark cases.

    python3 scripts/profile_cases.py SRC_ROOT DIR... [--top N] [--sort KEY] [--callers REGEX]
                                     [--counts REGEX] [--only REGEX]
    python3 scripts/profile_cases.py SRC_ROOT DIR... --wall REGEX [--reps N] [--only REGEX]
    python3 scripts/profile_cases.py SRC_ROOT DIR... --rows [--only REGEX]

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

With --wall it runs no profiler. It imports every algebroid module but
__main__ (the CLI imports some only when a command needs them) and wraps
every algebroid function and method whose own name matches REGEX
(re.search) in a perf_counter timer, replays the cases N times (--reps,
default 3) and prints, for each wrapped function, its wall milliseconds
per case in the best rep, that time's share of the cli.main calls' own
best, and its calls per case. A call inside another call of the same
function is counted but not timed again, so a recursive function is not
counted twice. cProfile charges a cost to every call it sees, which
inflates a layer of many small calls such as the exact arithmetic; a
wrapper costs one timer pair per call of a wrapped function only.

With --rows it runs no profiler and times nothing. It replays the cases of
each DIR once and prints, per DIR, per case: the tracker._read calls and the
rows they read (one row per fiber asked for), and the quadrature's reads
(quad._gauss calls) and rows (its pieces times the rule's nodes), those rows
split by segment kind (Line, Arc). The quadrature's reads go through
tracker._read, so its rows are among the tracker's. The counts are
deterministic, so two source trees can be compared by them alone.
Standard library only.
"""

import argparse
import contextlib
import cProfile
import importlib
import inspect
import io
import pkgutil
import pstats
import re
import signal
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

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


def _timed(fn, where: str, acc: dict):
    """fn wrapped to add its wall seconds and calls to acc[where]; a call
    made while another call of fn is running is counted but not timed."""
    depth = 0

    def timed(*args, **kwargs):
        nonlocal depth
        acc[where][1] += 1
        if depth:
            return fn(*args, **kwargs)
        depth += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[where][0] += perf_counter() - start
            depth -= 1

    return timed


def _wrap_matching(pattern: str, acc: dict) -> list:
    """Wrap every function and method of the loaded algebroid modules whose
    name matches pattern, in every module namespace and class that holds
    it; the (holder, name, original) triples to restore."""
    regex = re.compile(pattern)
    modules = [m for name, m in sys.modules.items()
               if name == "algebroid" or name.startswith("algebroid.")]
    wrapped, restore = {}, []
    for module in modules:
        for holder in [module] + [c for c in vars(module).values()
                                  if inspect.isclass(c) and c.__module__ == module.__name__]:
            for name, obj in list(vars(holder).items()):
                fn = obj.__func__ if isinstance(obj, staticmethod) else obj
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and regex.search(fn.__name__)):
                    continue
                if fn not in wrapped:
                    where = f"{module.__name__.rpartition('.')[2]}.{fn.__qualname__}"
                    acc[where] = [0.0, 0]
                    wrapped[fn] = _timed(fn, where, acc)
                new = staticmethod(wrapped[fn]) if isinstance(obj, staticmethod) else wrapped[fn]
                restore.append((holder, name, obj))
                setattr(holder, name, new)
    _replace_everywhere(wrapped, restore)  # the names other modules imported
    return restore


def _replace_everywhere(new: dict, restore: list) -> None:
    """Put new[fn] in place of every function fn of new in each loaded
    algebroid module namespace that holds it, adding the (module, name, fn)
    triples to restore."""
    for name, module in list(sys.modules.items()):
        if name == "algebroid" or name.startswith("algebroid."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in new:
                    restore.append((module, attr, obj))
                    setattr(module, attr, new[obj])


def _import_submodules(cli) -> None:
    """Import every module of cli's package but __main__, which runs the
    CLI, so that the modules the CLI imports lazily can be wrapped too."""
    package = sys.modules[cli.__package__]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            importlib.import_module(f"{package.__name__}.{info.name}")


def wall_times(cli, dirs: list, pattern: str, reps: int,
               only: str | None = None) -> tuple[int, float, dict]:
    """The number of cases, the best over reps of the summed wall seconds of
    their cli.main calls, and per wrapped function (module.qualname) its
    seconds in that best rep and its calls in one rep."""
    cases = list(replay_cases.case_argvs(dirs, only))
    acc: dict = {}
    _import_submodules(cli)
    restore = _wrap_matching(pattern, acc)
    best = None
    try:
        for _ in range(reps):
            for where in acc:
                acc[where] = [0.0, 0]
            total = 0.0
            for _, argv in cases:
                with contextlib.redirect_stdout(io.StringIO()):
                    start = perf_counter()
                    try:
                        cli.main(argv)
                    except (Exception, SystemExit):  # timed like any outcome
                        pass
                    total += perf_counter() - start
            if best is None or total < best[0]:
                best = (total, {where: tuple(v) for where, v in acc.items()})
    finally:
        for holder, name, obj in restore:
            setattr(holder, name, obj)
    return len(cases), best[0], best[1]


def print_wall(count: int, total: float, times: dict, reps: int, pattern: str) -> None:
    print(f"cases {count}, cli.main {1e3 * total / count:.3f} ms per case, best of {reps} reps")
    print(f"wall time of the functions named like {pattern!r}")
    print(f"{'ms/case':>10}  {'share':>6}  {'calls/case':>10}  function")
    for where, (seconds, calls) in sorted(times.items(), key=lambda item: -item[1][0]):
        print(f"{1e3 * seconds / count:10.3f}  {seconds / total:6.1%}  {calls / count:10.3f}  {where}")


def row_counts(cli, directory: str, only: str | None = None) -> tuple[int, Counter]:
    """The number of cases of directory and the counts their cli.main calls
    summed: "read calls" and "read rows" of tracker._read, "quad reads" of
    quad._gauss and "quad rows <kind>" of its rows per segment kind."""
    _import_submodules(cli)
    package = cli.__package__
    tracker, quad = sys.modules[f"{package}.tracker"], sys.modules[f"{package}.quad"]
    read, gauss, nodes = tracker._read, quad._gauss, len(quad._GL_X)
    counts: Counter = Counter()

    def counting_read(walked, tss):
        counts["read calls"] += 1
        counts["read rows"] += sum(len(ts) for ts in tss)
        return read(walked, tss)

    def counting_gauss(walked, t0s, t1s):
        counts["quad reads"] += 1
        for seg, t0 in zip(walked, t0s):
            counts[f"quad rows {type(seg.seg).__name__}"] += nodes * len(t0)
        return gauss(walked, t0s, t1s)

    restore: list = []
    _replace_everywhere({read: counting_read, gauss: counting_gauss}, restore)
    count = 0
    try:
        for _, argv in replay_cases.case_argvs([directory], only):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    cli.main(argv)
                except (Exception, SystemExit):  # counted like any outcome
                    pass
            count += 1
    finally:
        for module, attr, obj in restore:
            setattr(module, attr, obj)
    return count, counts


def print_rows(directory: str, count: int, counts: Counter) -> None:
    if not count:
        print(f"{Path(directory).name}: cases 0")
        return
    per = 1.0 / count
    kinds = sorted(key for key in counts if key.startswith("quad rows "))
    print(f"{Path(directory).name}: cases {count}, per case")
    print(f"  tracker._read  calls {per * counts['read calls']:10.3f}  "
          f"rows {per * counts['read rows']:10.1f}")
    print(f"  quadrature     reads {per * counts['quad reads']:10.3f}  "
          f"rows {per * sum(counts[key] for key in kinds):10.1f}")
    for key in kinds:
        print(f"    {key[len('quad rows '):]:<23}rows {per * counts[key]:10.1f}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_root", type=Path)
    parser.add_argument("dirs", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    parser.add_argument("--callers")
    parser.add_argument("--counts")
    parser.add_argument("--only")
    parser.add_argument("--wall")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--rows", action="store_true")
    args = parser.parse_args(replay_cases.join_only(argv))
    if args.rows:
        cli, total = replay_cases._import_cli(args.src_root), 0
        for directory in args.dirs:
            count, counts = row_counts(cli, directory, args.only)
            print_rows(directory, count, counts)
            total += count
        return 0 if total else 1
    if args.wall:
        reps = max(1, args.reps)
        cli = replay_cases._import_cli(args.src_root)
        count, total, times = wall_times(cli, args.dirs, args.wall, reps, args.only)
        if not count:
            print("cases 0")
            return 1
        print_wall(count, total, times, reps, args.wall)
        return 0
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
