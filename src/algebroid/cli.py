"""Command-line front end: JSON problem files in, JSON reports out.

Subcommands map onto the public operations. Reports are deterministic:
fixed field order, floats at 17 significant digits, no timestamps unless
--timing is requested. Complex numbers serialize as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .antideriv import build_antiderivative, constant_family
from .config import DEFAULT, Tolerances
from .errors import AlgebroidError, SchemaError
from .puiseux import _local_data, _radius, singular_elements
from .quad import _cycle_loop_values, path_independence_audit, surface_integral
from .surface import DefiningEquation, fiber_at, monodromy
from .tracker import Arc, BasePath, Line, SurfacePoint, continue_branch, loop_path

__all__ = ["main", "load_problem", "dumps_report"]


# --- deterministic JSON ------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return json.dumps(str(x))
    if x == int(x) and abs(x) < 1e16:
        return repr(float(x))
    return format(x, ".17g")


def dumps_report(obj, indent: int = 2, level: int = 0) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{pad_in}{json.dumps(str(k))}: {dumps_report(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad_in}{dumps_report(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _cpx(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


# --- problem files ------------------------------------------------------------


@dataclass
class Problem:
    eq: DefiningEquation
    base: Optional[SurfacePoint]
    paths: dict[str, BasePath]
    source: dict


def _want(mapping, key, types, where):
    if key not in mapping:
        raise SchemaError(f"missing key {key!r} in {where}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, types):  # a JSON true is a Python int
        raise SchemaError(f"key {key!r} in {where} has wrong type")
    return value


def _complex_from_json(value, where) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise SchemaError(f"{where} must be a [re, im] pair")
    return complex(*_finite(value, where))


def _finite(values: Sequence[float], where: str) -> Sequence[float]:
    if not all(math.isfinite(v) for v in values):
        raise SchemaError(f"{where} must be finite numbers, got {list(values)}")
    return values


def parse_path_json(segments, where="path") -> BasePath:
    if not isinstance(segments, (list, tuple)):
        raise SchemaError(f"{where} must be a list of segment objects")
    try:
        return BasePath(tuple(_segment_json(seg, f"{where}[{idx}]")
                              for idx, seg in enumerate(segments)))
    except ValueError as exc:  # an arc radius <= 0, or segments that do not join
        raise SchemaError(f"{where}: {exc}") from exc


def _segment_json(seg, spot):
    if not isinstance(seg, dict) or len(seg) != 1:
        raise SchemaError(f"{spot} must be a one-key object (line or arc)")
    if "line" in seg:
        ends = seg["line"]
        if not (isinstance(ends, (list, tuple)) and len(ends) == 2):
            raise SchemaError(f"{spot}.line must hold two [re, im] pairs")
        return Line(
            _complex_from_json(ends[0], f"{spot}.line[0]"),
            _complex_from_json(ends[1], f"{spot}.line[1]"),
        )
    if "arc" in seg:
        data = seg["arc"]
        if not isinstance(data, dict):
            raise SchemaError(f"{spot}.arc must be an object")
        center = _complex_from_json(_want(data, "center", (list, tuple), spot), spot)
        reals = [float(_want(data, key, (int, float), spot))
                 for key in ("radius", "theta_from", "theta_to")]
        return Arc(center, *_finite(reals, f"{spot}.arc radius and angles"))
    raise SchemaError(f"{spot} must be a line or an arc")


def path_to_json(path: BasePath) -> list:
    out = []
    for seg in path.segments:
        if isinstance(seg, Line):
            out.append({"line": [_cpx(seg.z_from), _cpx(seg.z_to)]})
        else:
            out.append({"arc": {"center": _cpx(seg.center), "radius": seg.radius,
                                "theta_from": seg.theta_from, "theta_to": seg.theta_to}})
    return out


def load_problem(filename: str) -> Problem:
    with open(filename, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{filename}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{filename}: top level must be an object")
    k = _want(raw, "k", int, filename)
    if k < 1:
        raise SchemaError(f"{filename}: sheet count k must be at least 1")
    exprs = _want(raw, "coefficients", list, filename)
    if len(exprs) != k or not all(isinstance(e, str) for e in exprs):
        raise SchemaError(f"{filename}: coefficients must be {k} expression strings")
    try:
        eq = DefiningEquation.from_strings(exprs)
    except SyntaxError as exc:
        raise SchemaError(f"{filename}: bad coefficient expression: {exc}") from exc
    base = None
    if "base" in raw:
        data = raw["base"]
        if not isinstance(data, dict):
            raise SchemaError(f"{filename}: base must be an object with z and w")
        base = SurfacePoint(
            _complex_from_json(_want(data, "z", (list, tuple), "base"), "base.z"),
            _complex_from_json(_want(data, "w", (list, tuple), "base"), "base.w"),
        )
    paths = {}
    if "paths" in raw:
        if not isinstance(raw["paths"], dict):
            raise SchemaError(f"{filename}: paths must be an object")
        for name, segs in raw["paths"].items():
            paths[name] = parse_path_json(segs, where=f"paths.{name}")
    return Problem(eq, base, paths, raw)


# --- command implementations ---------------------------------------------------


def cmd_critical(problem: Problem, tol: Tolerances) -> dict:
    crit = problem.eq.critical(tol)
    return {
        "points": [
            {"location": _cpx(p.location), "kind": p.kind} for p in crit.points
        ]
    }


def cmd_fiber(problem: Problem, z: complex, tol: Tolerances) -> dict:
    fiber = fiber_at(problem.eq, z, tol)
    return {"z": _cpx(z), "roots": [_cpx(r) for r in fiber.roots]}


def cmd_monodromy(problem: Problem, loop: BasePath, tol: Tolerances) -> dict:
    sigma = monodromy(problem.eq, loop, tol)
    return {
        "permutation": list(sigma.image),
        "orbits": [list(o) for o in sigma.orbits()],
        "is_identity": sigma.is_identity(),
    }


def _expansion_json(exp) -> dict:
    return {
        "m": exp.m,
        "u": exp.u,
        "residue": _cpx(exp.residue),
        "start_sheet": exp.start_sheet,
        "radius": exp.radius,
        "coefficients": [
            {"n": n, "value": _cpx(b)} for n, b in sorted(exp.coeffs.items())
        ],
    }


def cmd_puiseux(problem: Problem, point: complex, radius: Optional[float],
                tol: Tolerances) -> dict:
    report = singular_elements(problem.eq, point, radius, tol)
    return {
        "center": _cpx(report.center),
        "cycles": [
            {
                "sheets": list(c.sheets),
                "classification": c.classification,
                "expansion": _expansion_json(c.expansion),
            }
            for c in report.cycles
        ],
    }


def cmd_residues(problem: Problem, radius: Optional[float], contour_check: bool,
                 tol: Tolerances) -> dict:
    centers = []
    for cp in problem.eq.critical(tol).points:
        rep, turn = _local_data(problem.eq, cp.location, radius, tol)
        if contour_check:
            loop_values = _cycle_loop_values(turn, [c.sheets for c in rep.cycles], tol)
        cycles = []
        for i, c in enumerate(rep.cycles):
            entry = {
                "sheets": list(c.sheets),
                "m": c.expansion.m,
                "u": c.expansion.u,
                "classification": c.classification,
                "residue": _cpx(c.residue),
            }
            if contour_check:
                rc = loop_values[i] / (2j * math.pi)
                entry["contour_residue"] = _cpx(rc)
                entry["discrepancy"] = abs(rc - c.residue)
            cycles.append(entry)
        centers.append({"center": _cpx(cp.location), "kind": cp.kind, "cycles": cycles})
    return {"centers": centers}


def cmd_integrate(problem: Problem, path: BasePath, start: SurfacePoint,
                  tol: Tolerances) -> dict:
    res = surface_integral(problem.eq, start, path, tol)
    return {
        "value": _cpx(res.value),
        "error_estimate": res.error_estimate,
        "endpoint": {"z": _cpx(res.endpoint.z), "w": _cpx(res.endpoint.w)},
        "closed_on_surface": res.closed_on_surface,
    }


def cmd_audit(problem: Problem, base: SurfacePoint, target: SurfacePoint,
              paths: Sequence[BasePath], tol: Tolerances) -> dict:
    rep = path_independence_audit(problem.eq, base, target, paths, tol)
    return {
        "c_values": [_cpx(v) for v in rep.c_values],
        "pairs": [
            {"first": i, "second": j, "discrepancy": d} for i, j, d in rep.pairs
        ],
        "max_discrepancy": rep.max_discrepancy,
        "verdict": rep.verdict,
        "residue_data": [
            {
                "center": _cpx(rc.center),
                "cycle": list(rc.cycle),
                "m": rc.m,
                "residue": _cpx(rc.residue),
                "loop_period": _cpx(rc.loop_value),
                "discrepancy": rc.discrepancy,
            }
            for rc in rep.enclosed_residue_data
        ],
    }


def _model_json(model) -> dict:
    diag = model.diagnostics
    out = {
        "k": model.k,
        "base": {"z": _cpx(model.base.z), "w": _cpx(model.base.w)},
        "constant": _cpx(model.c),
        "coefficients": [str(c) for c in model.coeffs],
        "diagnostics": {
            "residuals": list(diag.residuals),
            "degrees": [list(d) for d in diag.degrees],
            "grid_size": len(diag.sample_grid),
            "single_valuedness_defect": diag.single_valuedness_defect,
        },
    }
    if diag.derivative_defect is not None:
        out["diagnostics"]["derivative_defect"] = diag.derivative_defect
    return out


def _model_warnings(model) -> list[str]:
    diag = model.diagnostics
    if not diag.constant_fine_den:
        return []
    return [f"the constant of integration C is not a Gaussian rational with denominator at most "
            f"10^6; it was snapped by {diag.constant_snap:.1e} to a larger denominator, "
            "so the constant terms of the coefficients are approximate"]


def cmd_antiderivative(problem: Problem, base: SurfacePoint, c: complex,
                       bounds: Optional[tuple[int, int]], tol: Tolerances,
                       rng=None) -> tuple[dict, list[str]]:
    model = build_antiderivative(problem.eq, base, c, bounds=bounds, tol=tol, rng=rng)
    return _model_json(model), _model_warnings(model)


def cmd_family(problem: Problem, base: SurfacePoint, c: complex, shift: complex,
               bounds: Optional[tuple[int, int]], tol: Tolerances,
               rng=None) -> tuple[dict, list[str]]:
    model = build_antiderivative(problem.eq, base, c, bounds=bounds, tol=tol, rng=rng)
    shifted = constant_family(model, shift)
    out = _model_json(model)
    out["family_constant"] = _cpx(complex(shift))
    out["family_coefficients"] = [str(c) for c in shifted]
    return out, _model_warnings(model)


# --- argument plumbing ----------------------------------------------------------


def _parse_reals(parts: Sequence[str], flag: str, text: str) -> Sequence[float]:
    try:
        return _finite([float(p) for p in parts], flag)
    except ValueError:
        raise SchemaError(f"{flag} expects numbers, got {text!r}") from None


def _parse_complex_flag(text: str, flag: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise SchemaError(f"{flag} expects RE or RE,IM, got {text!r}")
    return complex(*_parse_reals(parts, flag, text))


def _resolve_tol(pairs: Optional[Sequence[str]]) -> Tolerances:
    tol = DEFAULT
    for pair in pairs or ():
        if "=" not in pair:
            raise SchemaError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, _, text = pair.partition("=")
        if name not in {f.name for f in dataclasses.fields(Tolerances)}:
            raise SchemaError(f"unknown tolerance {name!r}")
        (value,) = _parse_reals([text], f"--tol {name}", text)
        if value <= 0:
            raise SchemaError(f"--tol {name} must be positive, got {text!r}")
        kind = type(getattr(tol, name))
        if kind is int and not value.is_integer():
            raise SchemaError(f"--tol {name} expects an integer, got {text!r}")
        tol = tol.replace(**{name: kind(value)})
    return tol


def _check_radius(problem: Problem, centers: Sequence[complex],
                  radius: Optional[float], tol: Tolerances) -> None:
    """--radius must be finite, positive and below half the gap at every center."""
    if radius is not None and not (math.isfinite(radius) and radius > 0):
        raise SchemaError(f"--radius must be a finite positive number, got {radius}")
    for a in centers:
        try:
            _radius(problem.eq, a, radius, tol)
        except ValueError as exc:
            raise SchemaError(f"--radius: {exc}") from exc


def _resolve_path(problem: Problem, args) -> BasePath:
    name = getattr(args, "path", None)
    inline = getattr(args, "path_json", None)
    loop = getattr(args, "loop", None)
    given = [x for x in (name, inline, loop) if x]
    if len(given) != 1:
        raise SchemaError("give exactly one of --path, --path-json, --loop")
    if name:
        if name not in problem.paths:
            raise SchemaError(f"path {name!r} not defined in the problem file")
        return problem.paths[name]
    if inline:
        try:
            data = json.loads(inline)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"--path-json is not valid JSON: {exc}") from exc
        return parse_path_json(data, where="--path-json")
    parts = loop.split(",")
    if len(parts) not in (4, 6):
        raise SchemaError("--loop expects CX,CY,R,TURNS[,AX,AY]")
    nums = _parse_reals(parts, "--loop", loop)
    if not nums[3].is_integer():
        raise SchemaError(f"--loop TURNS must be an integer, got {parts[3]!r}")
    anchor = complex(nums[4], nums[5]) if len(parts) == 6 else None
    try:
        return loop_path(complex(nums[0], nums[1]), nums[2], int(nums[3]), anchor)
    except ValueError as exc:
        raise SchemaError(f"--loop: {exc}") from exc


def _resolve_start(problem: Problem, args) -> SurfacePoint:
    sz = getattr(args, "start_z", None)
    sw = getattr(args, "start_w", None)
    if (sz is None) != (sw is None):
        raise SchemaError("--start-z and --start-w must be given together")
    if sz is not None:
        return SurfacePoint(
            _parse_complex_flag(sz, "--start-z"), _parse_complex_flag(sw, "--start-w")
        )
    if problem.base is None:
        raise SchemaError("no base germ in the problem file; pass --start-z/--start-w")
    return problem.base


def _write_plot_csv(filename: str, samples):
    with open(filename, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "re_z", "im_z", "re_w", "im_w"])
        for t, z, w in samples:
            writer.writerow(
                [format(v, ".17g") for v in (t, z.real, z.imag, w.real, w.imag)]
            )


@functools.cache  # built on the first main() call, then reused: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroid",
        description="Symbolic-numeric toolkit for k-valued algebroid functions.",
    )
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a tolerance (repeatable)")
    parser.add_argument("--plot-data", metavar="PATH",
                        help="write CSV track samples for path commands")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized path perturbations")
    parser.add_argument("--json-indent", type=int, default=2)
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report "
                             "(breaks byte-for-byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem", help="problem JSON file")
        return p

    add("critical", "critical points with kinds")

    p = add("fiber", "all k roots over a regular point")
    p.add_argument("--z", required=True, metavar="RE[,IM]")

    p = add("monodromy", "sheet permutation of a closed loop")
    p.add_argument("--path", metavar="NAME")
    p.add_argument("--path-json", metavar="JSON")
    p.add_argument("--loop", metavar="CX,CY,R,TURNS[,AX,AY]")

    p = add("puiseux", "Puiseux data of every cycle at a critical point")
    p.add_argument("--point", required=True, metavar="RE[,IM]")
    p.add_argument("--radius", type=float, default=None)

    p = add("residues", "residues of all singular elements")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--contour-check", action="store_true",
                   help="cross-check residues by contour integration")

    p = add("integrate", "surface integral along a path")
    p.add_argument("--path", metavar="NAME")
    p.add_argument("--path-json", metavar="JSON")
    p.add_argument("--loop", metavar="CX,CY,R,TURNS[,AX,AY]")
    p.add_argument("--start-z", metavar="RE[,IM]")
    p.add_argument("--start-w", metavar="RE[,IM]")

    p = add("audit", "path-independence audit between two germs")
    p.add_argument("--target-z", required=True, metavar="RE[,IM]")
    p.add_argument("--target-w", required=True, metavar="RE[,IM]")
    p.add_argument("--paths", required=True,
                   help="comma-separated path names from the problem file")
    p.add_argument("--start-z", metavar="RE[,IM]")
    p.add_argument("--start-w", metavar="RE[,IM]")

    p = add("antiderivative", "fit the defining equation of the antiderivative")
    p.add_argument("--constant", default="0", metavar="RE[,IM]")
    p.add_argument("--num-degree", type=int, default=None)
    p.add_argument("--den-degree", type=int, default=None)
    p.add_argument("--start-z", metavar="RE[,IM]")
    p.add_argument("--start-w", metavar="RE[,IM]")

    p = add("family", "antiderivative family member with a shifted constant")
    p.add_argument("--constant", default="0", metavar="RE[,IM]")
    p.add_argument("--shift", required=True, metavar="RE[,IM]")
    p.add_argument("--num-degree", type=int, default=None)
    p.add_argument("--den-degree", type=int, default=None)
    p.add_argument("--start-z", metavar="RE[,IM]")
    p.add_argument("--start-w", metavar="RE[,IM]")

    return parser


def _bounds_from(args) -> Optional[tuple[int, int]]:
    dn, dd = args.num_degree, args.den_degree
    if (dn is None) != (dd is None):
        raise SchemaError("--num-degree and --den-degree must be given together")
    for flag, value in (("--num-degree", dn), ("--den-degree", dd)):
        if value is not None and value < 0:
            raise SchemaError(f"{flag} must be at least 0, got {value}")
    return None if dn is None else (dn, dd)


def _run(args) -> tuple[dict, dict, list[str]]:
    tol = _resolve_tol(args.tol)
    rng = random.Random(args.seed)
    problem = load_problem(args.problem)
    if tol.n_max < problem.eq.k:
        raise SchemaError(f"--tol n_max must be at least k = {problem.eq.k}, got {tol.n_max}")
    inputs = {
        "problem": args.problem,
        "k": problem.eq.k,
        "coefficients": list(problem.source.get("coefficients", [])),
        "seed": args.seed,
    }
    plot_samples = None
    warnings: list[str] = []
    cmd = args.command

    if cmd == "critical":
        results = cmd_critical(problem, tol)
    elif cmd == "fiber":
        z = _parse_complex_flag(args.z, "--z")
        inputs["z"] = _cpx(z)
        results = cmd_fiber(problem, z, tol)
    elif cmd == "monodromy":
        loop = _resolve_path(problem, args)
        inputs["path"] = path_to_json(loop)
        results = cmd_monodromy(problem, loop, tol)
        if args.plot_data:
            fiber = fiber_at(problem.eq, loop.start_z, tol)
            track = continue_branch(
                problem.eq, SurfacePoint(loop.start_z, fiber.roots[0]), loop, tol
            )
            plot_samples = track.samples
    elif cmd == "puiseux":
        point = _parse_complex_flag(args.point, "--point")
        inputs["point"] = _cpx(point)
        _check_radius(problem, [point], args.radius, tol)
        results = cmd_puiseux(problem, point, args.radius, tol)
    elif cmd == "residues":
        _check_radius(problem, problem.eq.critical(tol).locations, args.radius, tol)
        results = cmd_residues(problem, args.radius, args.contour_check, tol)
    elif cmd == "integrate":
        path = _resolve_path(problem, args)
        start = _resolve_start(problem, args)
        inputs["path"] = path_to_json(path)
        inputs["start"] = {"z": _cpx(start.z), "w": _cpx(start.w)}
        results = cmd_integrate(problem, path, start, tol)
        if args.plot_data:
            track = continue_branch(problem.eq, start, path, tol)
            plot_samples = track.samples
    elif cmd == "audit":
        start = _resolve_start(problem, args)
        target = SurfacePoint(
            _parse_complex_flag(args.target_z, "--target-z"),
            _parse_complex_flag(args.target_w, "--target-w"),
        )
        names = [n.strip() for n in args.paths.split(",") if n.strip()]
        missing = [n for n in names if n not in problem.paths]
        if missing:
            raise SchemaError(f"paths not defined in the problem file: {missing}")
        paths = [problem.paths[n] for n in names]
        inputs["start"] = {"z": _cpx(start.z), "w": _cpx(start.w)}
        inputs["target"] = {"z": _cpx(target.z), "w": _cpx(target.w)}
        inputs["paths"] = names
        results = cmd_audit(problem, start, target, paths, tol)
        if args.plot_data:
            stem = args.plot_data
            for idx, p in enumerate(paths):
                track = continue_branch(problem.eq, start, p, tol)
                _write_plot_csv(f"{stem}.{idx}.csv", track.samples)
    elif cmd in ("antiderivative", "family"):
        start = _resolve_start(problem, args)
        c = _parse_complex_flag(args.constant, "--constant")
        bounds = _bounds_from(args)
        inputs["start"] = {"z": _cpx(start.z), "w": _cpx(start.w)}
        inputs["constant"] = _cpx(c)
        if cmd == "antiderivative":
            results, warnings = cmd_antiderivative(problem, start, c, bounds, tol, rng)
        else:
            shift = _parse_complex_flag(args.shift, "--shift")
            inputs["shift"] = _cpx(shift)
            results, warnings = cmd_family(problem, start, c, shift, bounds, tol, rng)
    else:  # pragma: no cover - argparse enforces the choices
        raise SchemaError(f"unknown command {cmd!r}")

    if plot_samples is not None and args.plot_data:
        _write_plot_csv(args.plot_data, plot_samples)
    return inputs, results, warnings


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        inputs, results, warnings = _run(args)
    except AlgebroidError as exc:
        report = {
            "schema": "algebroid-report-v1",
            "command": args.command,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exc.exit_code,
            },
        }
        print(dumps_report(report, args.json_indent))
        return exc.exit_code
    except FileNotFoundError as exc:
        report = {
            "schema": "algebroid-report-v1",
            "command": args.command,
            "error": {"type": "FileNotFound", "message": str(exc), "exit_code": 2},
        }
        print(dumps_report(report, args.json_indent))
        return 2
    report = {
        "schema": "algebroid-report-v1",
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "warnings": warnings,
    }
    if args.timing:
        report["timing_seconds"] = time.perf_counter() - started
    print(dumps_report(report, args.json_indent))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
