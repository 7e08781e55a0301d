"""Benchmark of the algebroid CLI: end-to-end solve times and per-layer traces.

    python3 benchmark/run.py --workload critical --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src/``. Load is one process and one closed-loop client: each operation is
one in-process call of ``algebroid.cli.main([...])`` on a generated problem
file, and the next starts when the previous one returns. The run takes
cycles of its workload's slots from a generator seeded by ``--seed`` (see
workloads.py) until ``--seconds`` have passed and at least MIN_CYCLES cycles
are done, always finishing the cycle in progress, so every run holds the same
mix of cases and the same share of named known-defect cases.

Every reported time is scaled to a reference host speed by a calibration
kernel timed around each operation and each interpreter start (see
calibrate.py), because the speed of a core on a shared host drifts by up to
2x; the raw wall times are kept in report.json.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs cycles untraced for a third of ``--seconds`` (at least
one), the same cycles traced (spans), then one cycle under call counters,
and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else
(environment, every operation with its outcome, failure breakdown, layer
shares, spans) goes to ``benchmark/out/<workload>-seed<n>-trace<t>/``,
next to the problem files and the exact ``algebroid`` argv of each case.
"""

from __future__ import annotations

import os

# One BLAS thread, so that on a two-core machine np.linalg.lstsq does not
# compete with the interpreter for the second core. Set before numpy loads.
BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# solve_s.tail is a fixed percentile per workload: the highest that leaves at
# least ten samples beyond it in the MIN_CYCLES cycles every run holds
# (critical 48 samples, periods 40, antiderivative 24), and stays below the
# share of known-defect (infinite) samples. A fixed rank keeps a faster
# program, which fits more samples in, from reading as a worse tail.
TAIL_QUANTILE = {"critical": 0.75, "periods": 0.70, "antiderivative": 0.55}
# Cycle wall times on a 2-vCPU Intel Xeon, calibration included: critical
# 3.5-5 s, periods 5-8 s, antiderivative 13-24 s. With --seconds 10 a run is
# its minimum cycles, which keeps all the runs of the three workloads that a
# comparison of two commits needs within an hour on that host. Periods needs
# four: with three (30 samples) its tail percentile has to drop to p65, which
# sits on the edge between the two-point and four-point classes and spread
# 0.106 over ten seeds, against 0.043 for p70 of 40.
MIN_CYCLES = {"critical": 3, "periods": 4, "antiderivative": 3}
SETUP_STARTS = 9
# The stages each workload is built to load; their shares go to report.json.
STAGES = {"exact": ("exactalg",), "tracker+quad": ("tracker", "quad"),
          "puiseux+quad": ("puiseux", "quad")}
UNSOLVED = math.inf
# JSON has no infinity; an unsolved percentile is reported as this many seconds.
UNSOLVED_REPORTED = 1.0e9


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import algebroid from this checkout's src/, never from elsewhere."""
    if not (SRC / "algebroid" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no algebroid sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import algebroid.cli

    if Path(algebroid.cli.__file__).resolve().parent != SRC / "algebroid":
        raise SystemExit(f"benchmark: algebroid imported from {algebroid.cli.__file__}")
    return algebroid.cli


# --- environment and set-up ---------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def measure_setup() -> list:
    """Wall times of cold interpreters running ``import algebroid.cli``, each
    as (scaled, raw, kernel) seconds; see calibrate.py.

    The benchmark and the interpreters it starts share one CPU meanwhile, so
    the calibration kernel is timed where the interpreter runs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import algebroid.cli"]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        clock = calibrate.Clock()
        times = []
        for attempt in range(SETUP_STARTS + 1):
            start = perf_counter()
            # no timeout: with one, subprocess polls the child in 50 ms steps
            subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            raw = perf_counter() - start
            scaled, kernel = clock.scale(raw)
            if attempt:  # the first start may compile bytecode
                times.append((scaled, raw, kernel))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


# --- cases ----------------------------------------------------------------------


class CaseStream:
    """Cycles of cases from one seed, written to problem files as they are made."""

    def __init__(self, workload: str, seed: int, out: Path):
        self._make = workloads.CYCLES[workload]
        self._rng = random.Random(f"{workload}:{seed}")
        self._dir = out / "cases"
        self._dir.mkdir(parents=True, exist_ok=True)
        self.cycles: list = []

    def cycle(self, index: int) -> list:
        while len(self.cycles) <= index:
            number = len(self.cycles)
            made = []
            for pos, case in enumerate(self._make(self._rng)):
                stem = self._dir / f"{number:03d}-{pos:02d}-{case.slot}"
                path = os.path.relpath(f"{stem}.json", ROOT)
                with open(f"{stem}.json", "w", encoding="utf-8") as fh:
                    json.dump(case.problem, fh, indent=1)
                argv = case.argv(path)
                with open(f"{stem}.argv", "w", encoding="utf-8") as fh:
                    fh.write(shlex.join(["algebroid", *argv]) + "\n")
                made.append((case, argv))
            self.cycles.append(made)
        return self.cycles[index]


def run_case(cli, case, argv, wrap=None) -> dict:
    """One closed-loop operation: call, time, parse, check."""
    out = io.StringIO()

    def call():
        return cli.main(list(argv))

    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            wrap(call) if wrap else call()
        seconds = perf_counter() - start
    except (Exception, SystemExit) as exc:  # an operation must not stop the run
        seconds = perf_counter() - start
        reason = f"raised:{type(exc).__name__}"
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return _record(case, argv, seconds, reason, detail)
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        return _record(case, argv, seconds, "check:unparseable-report", None)
    reason = checks.check(case, report)
    detail = report.get("error", {}).get("message") if reason else None
    return _record(case, argv, seconds, reason, detail)


def _record(case, argv, seconds, reason, detail) -> dict:
    return {
        "slot": case.slot,
        "command": shlex.join(["algebroid", *argv]),
        "seconds": seconds,
        "solved": reason is None,
        "reason": reason,
        "detail": detail,
        "known_defect": case.defect,
    }


def timed_case(cli, clock, case, argv, wrap=None) -> dict:
    """run_case, with its time scaled to the reference host speed by
    calibrate.py; the wall time stays in the record as ``raw_seconds``."""
    record = run_case(cli, case, argv, wrap)
    record["raw_seconds"] = record["seconds"]
    record["seconds"], record["kernel_seconds"] = clock.scale(record["seconds"])
    return record


def run_loop(cli, stream: CaseStream, seconds: float, min_cycles: int) -> tuple:
    """Whole cycles until ``seconds`` have passed, and at least ``min_cycles``;
    returns (records, cycles run)."""
    records = []
    clock = calibrate.Clock()
    start = perf_counter()
    cycles = 0
    while cycles < min_cycles or perf_counter() - start < seconds:
        for case, argv in stream.cycle(cycles):
            records.append(timed_case(cli, clock, case, argv))
        cycles += 1
    return records, cycles


# --- statistics ---------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile that keeps infinite samples infinite."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    if frac == 0 or s[lo] == s[hi]:
        return s[lo]
    if math.isinf(s[hi]):
        return math.inf
    return s[lo] + (s[hi] - s[lo]) * frac


def solve_times(records) -> list:
    return [r["seconds"] if r["solved"] else UNSOLVED for r in records]


def _finite(x: float) -> float:
    return UNSOLVED_REPORTED if math.isinf(x) else x


def end_to_end(workload: str, records, setup_times) -> tuple:
    times = solve_times(records)
    q = TAIL_QUANTILE[workload]
    failed = sum(not r["solved"] for r in records)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solve_s.p50": (_finite(quantile(times, 0.5)), "s"),
        "solve_s.tail": (_finite(quantile(times, q)), "s"),
        "fail_ratio": (failed / len(records), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    tail = {
        "percentile": 100 * q,
        "samples": len(times),
        "samples_beyond": len(times) - 1 - math.floor(q * (len(times) - 1)),
    }
    return metrics, tail


def failure_breakdown(records) -> dict:
    out: dict = {}
    for r in records:
        if not r["solved"]:
            by_reason = out.setdefault(r["slot"], {})
            by_reason[r["reason"]] = by_reason.get(r["reason"], 0) + 1
    return out


# --- per-layer ------------------------------------------------------------------------


def per_layer(summary: dict, counts: dict, n_traced: int, n_counted: int,
              overhead_s: float) -> dict:
    funcs = summary["functions"]

    def self_s(name):
        return (funcs.get(name, {}).get("self_s", 0.0) / n_traced, "s/op")

    def errors(name):
        return (funcs.get(name, {}).get("errors", 0) / n_traced, "errors/op")

    def calls(name):
        return (counts.get(name, 0) / n_counted, "calls/op")

    fresh = counts["tracker.SegmentTracker.init"] - counts["tracker.SegmentTracker.clone"]
    fits = counts["antideriv.fit_rational"]
    m = {
        "cli.load_problem.self_s": self_s("cli.load_problem"),
        "cli.dumps_report.self_s": self_s("cli.dumps_report"),
        "exactalg.parse_coefficient.self_s": self_s("exactalg.parse_coefficient"),
        "exactalg.discriminant.calls": calls("exactalg.discriminant"),
        "exactalg.discriminant.self_s": self_s("exactalg.discriminant"),
        "rootfind.all_roots.calls": calls("rootfind.all_roots"),
        "rootfind.all_roots.self_s": self_s("rootfind.all_roots"),
        "rootfind.newton_polish.calls": calls("rootfind.newton_polish"),
        "surface.critical_points.self_s": self_s("surface.critical_points"),
        "surface.fiber_at.calls": calls("surface.fiber_at"),
        "surface.fiber_at.self_s": self_s("surface.fiber_at"),
        "surface.monodromy.calls": calls("surface.monodromy"),
        "surface.monodromy.self_s": self_s("surface.monodromy"),
    }
    for ev in ("a_values", "psi", "psi_w", "psi_z", "residual_scale"):
        m[f"surface.eval.{ev}.calls"] = calls(f"surface.eval.{ev}")
    m.update({
        "tracker.SegmentTracker.advance_to.calls": calls("tracker.SegmentTracker.advance_to"),
        "tracker.SegmentTracker.advance_to.self_s": self_s("tracker.SegmentTracker.advance_to"),
        "tracker.SegmentTracker.new.calls": (fresh / n_counted, "calls/op"),
        "tracker.SegmentTracker.clone.calls": calls("tracker.SegmentTracker.clone"),
        "tracker.clones_per_tracker": (
            counts["tracker.SegmentTracker.clone"] / fresh if fresh else 0.0, "ratio"),
        "tracker.continue_fiber.self_s": self_s("tracker.continue_fiber"),
        "tracker.safe_line.calls": calls("tracker.safe_line"),
        "puiseux.cycle_structure.self_s": self_s("puiseux.cycle_structure"),
        "puiseux.puiseux_expand.calls": calls("puiseux.puiseux_expand"),
        "puiseux.puiseux_expand.self_s": self_s("puiseux.puiseux_expand"),
        "puiseux.puiseux_expand.errors": errors("puiseux.puiseux_expand"),
        "puiseux.residue_by_contour.self_s": self_s("puiseux.residue_by_contour"),
        "quad.surface_integral.calls": calls("quad.surface_integral"),
        "quad.surface_integral.self_s": self_s("quad.surface_integral"),
        "quad.surface_integral.errors": errors("quad.surface_integral"),
        "quad.residue_theorem_check.self_s": self_s("quad.residue_theorem_check"),
        "quad.c_ab.calls": calls("quad.c_ab"),
        "antideriv.SheetRouter.init.self_s": self_s("antideriv.SheetRouter.init"),
        "antideriv.branch_integrals_at.calls": calls("antideriv.branch_integrals_at"),
        "antideriv.branch_integrals_at.self_s": self_s("antideriv.branch_integrals_at"),
        "antideriv.fit_rational.calls": calls("antideriv.fit_rational"),
        "antideriv.fit_rational.self_s": self_s("antideriv.fit_rational"),
        "antideriv.lstsq_per_fit": (
            counts["numpy.linalg.lstsq"] / fits if fits else 0.0, "ratio"),
        "antideriv.verify_antiderivative.self_s": self_s("antideriv.verify_antiderivative"),
    })
    for layer, row in summary["layers"].items():
        m[f"layer.{layer}.self_share"] = (row["self_s"] / summary["op_seconds"], "ratio")
    for layer, row in summary["layers"].items():
        m[f"layer.{layer}.inclusive_share"] = (row["inclusive_s"] / summary["op_seconds"], "ratio")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


# --- main -------------------------------------------------------------------------------


def _metrics_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def traced_passes(cli, stream: CaseStream, seconds: float, out: Path) -> tuple:
    """Untraced, traced and counted passes; returns (metrics, report fields, passes).

    The untraced and traced passes run the same cycles, so the difference of
    their medians is the tracing overhead; the counted pass runs the first
    cycle, so its counts repeat exactly for a seed.
    """
    records, cycles = run_loop(cli, stream, seconds / 3, 1)
    tracer = spans.Tracer()
    traced = []
    with tracer:
        clock = calibrate.Clock()
        ops = [pair for c in range(cycles) for pair in stream.cycle(c)]
        for index, (case, argv) in enumerate(ops):
            traced.append(timed_case(cli, clock, case, argv,
                                     wrap=functools.partial(tracer.run_op, index)))
    with spans.Counter() as counter:
        counted = [run_case(cli, case, argv) for case, argv in stream.cycle(0)]
    tracer.write(out / "spans.jsonl.gz")
    summary = tracer.summary(STAGES)
    traced_p50 = _finite(quantile(solve_times(traced), 0.5))
    untraced_p50 = _finite(quantile(solve_times(records), 0.5))
    metrics = per_layer(summary, counter.counts, len(traced), len(counted),
                        traced_p50 - untraced_p50)
    shares = {group: {key.replace("_s", "_share"): value / summary["op_seconds"]
                      for key, value in row.items()}
              for group, row in summary["groups"].items()}
    fields = dict(cycles=cycles, traced_p50_s=traced_p50, untraced_p50_s=untraced_p50,
                  op_seconds=summary["op_seconds"], stage_shares=shares,
                  layers=summary["layers"], functions=summary["functions"],
                  counts=counter.counts)
    return metrics, fields, {"untraced": records, "traced": traced, "counted": counted}


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_program()
    os.chdir(ROOT)  # problem paths in the argv files are relative to the checkout
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stream = CaseStream(args.workload, args.seed, out)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed)}

    if args.trace == 0:
        setup_times = measure_setup()
        records, cycles = run_loop(cli, stream, args.seconds, MIN_CYCLES[args.workload])
        metrics, tail = end_to_end(args.workload, records, [t[0] for t in setup_times])
        report.update(setup_times=[dict(zip(("seconds", "raw_seconds", "kernel_seconds"), t))
                                   for t in setup_times],
                      reference_kernel_s=calibrate.REFERENCE_S, tail=tail, cycles=cycles)
        passes = {"untraced": records}
    else:
        metrics, fields, passes = traced_passes(cli, stream, args.seconds, out)
        report.update(fields)

    every = [r for recs in passes.values() for r in recs]
    unexpected = [r for r in every if not r["solved"] and not r["known_defect"]]
    failed = sum(not r["solved"] for r in every)
    report.update(
        metrics=_metrics_json(metrics),
        unexpected_failures=unexpected,
        failures={name: failure_breakdown(recs) for name, recs in passes.items()},
        operations=passes,
    )
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if "tail" in report:
        print("solve_s.tail is the p{percentile:g} of {samples} samples, "
              "{samples_beyond} beyond it".format(**report["tail"]))
    print(f"operations {len(every)}, unsolved {failed}, unexpected {len(unexpected)}; "
          f"details in {os.path.relpath(out, ROOT)}/report.json")
    result = {
        "correct": not unexpected,
        "attempted": len(every),
        "failed": failed,
        "metrics": _metrics_json(metrics),
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
