"""Command-line front end: JSON problem files in, JSON reports out.

One function per subcommand, bound to its subparser by set_defaults, parses
its own flags, appends its keys to the report's inputs and returns (results,
warnings). Shared flag groups are parent parsers. A global flag, such as
--timing, is declared once on the top-level parser and read in _run or main.

Reports are deterministic: fixed field order, floats at 17 significant
digits, no timestamps unless --timing is requested. Complex numbers
serialize as [re, im] pairs.

A command line run is one fresh process for one subcommand, so this module
imports at its top only what every subcommand needs: config, errors, paths
and surface, which load a problem and its critical set. A subcommand that
uses the tracker, Puiseux, quadrature or antiderivative layer imports it
when it runs, reading each name off the layer's module at that moment, so a
patch of a module attribute reaches the call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import DEFAULT, Tolerances
from .errors import AlgebroidError, SchemaError, in_order
from .exactalg import _MAX_DEGREE
from .paths import Arc, BasePath, Line, SurfacePoint, loop_path, same_z
from .surface import DefiningEquation, fiber_at, monodromy

__all__ = ["main", "load_problem", "dumps_report"]


# --- deterministic JSON ------------------------------------------------------


# what json.dumps calls for a str under its default ensure_ascii
_quote = json.encoder.encode_basestring_ascii
# --json-indent: its default and its largest value
_INDENT, _MAX_INDENT = 2, 64
# the digits of the largest integer a float holds
_INT_DIGITS = len(str(int(sys.float_info.max)))
# the most sheets a problem file may declare: the exact discriminant took 1 s
# at k = 16 on random degree-3 coefficients (2-vCPU Xeon) and grows steeply
_MAX_K = 16


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return _quote(str(x))
    if x == int(x) and abs(x) < 1e16:
        return repr(float(x))
    return format(x, ".17g")


def dumps_report(obj, indent: int = _INDENT, level: int = 0) -> str:
    """obj as JSON with one entry a line, indented by indent spaces a level
    from level on: the parts are appended into one list and joined once."""
    out: list[str] = []
    _write(obj, indent, level, out)
    return "".join(out)


def _write(obj, indent: int, level: int, out: list) -> None:
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad_in, opener = "\n" + " " * (indent * (level + 1)), "{"
        for k, v in obj.items():
            out += (opener, pad_in, _quote(str(k)), ": ")
            _write(v, indent, level + 1, out)
            opener = ","
        out += ("\n", " " * (indent * level), "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad_in, opener = "\n" + " " * (indent * (level + 1)), "["
        for v in obj:
            out += (opener, pad_in)
            _write(v, indent, level + 1, out)
            opener = ","
        out += ("\n", " " * (indent * level), "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    else:
        out.append(_quote(str(obj)))


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
    except SchemaError:
        raise
    except ValueError as exc:  # a bad arc radius or sweep, or segments that do not join
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


def _json_int(digits: str) -> int:
    """A JSON integer a float holds; OverflowError for a larger one, before
    int() meets its limit on the digits it converts."""
    size = len(digits.lstrip("-"))
    if size > _INT_DIGITS or abs(value := int(digits)) > sys.float_info.max:
        raise OverflowError(f"an integer of {size} digits is beyond float range")
    return value


def _parse_json(text: str, where: str):
    """JSON from outside the program: SchemaError naming where (the file or
    the flag it came from) when text is not JSON, nests deeper than the
    parser recurses, or holds an integer a float cannot hold."""
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{where}: JSON nested too deeply") from None
    except OverflowError as exc:
        raise SchemaError(f"{where}: {exc}") from None


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
    """The problem file's equation, base germ and named paths; SchemaError
    names the file when it is not a UTF-8 JSON file (a missing one raises
    FileNotFoundError)."""
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            text = fh.read()
    except IsADirectoryError as exc:
        raise SchemaError(f"{filename}: is a directory, not a problem file") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{filename}: not UTF-8 text: {exc}") from exc
    raw = _parse_json(text, filename)
    if not isinstance(raw, dict):
        raise SchemaError(f"{filename}: top level must be an object")
    k = _want(raw, "k", int, filename)
    if not 1 <= k <= _MAX_K:
        raise SchemaError(f"{filename}: sheet count k must be from 1 to {_MAX_K}, got {k}")
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


# --- argument plumbing ----------------------------------------------------------


def _parse_reals(parts: Sequence[str], flag: str, text: str) -> Sequence[float]:
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise SchemaError(f"{flag} expects numbers, got {text!r}") from None
    return _finite(values, flag)


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


def _check_ends(where: str, path: BasePath, start: complex,
                target: Optional[complex] = None) -> None:
    """The path must start at start and, given a target, end there, by the
    rule (paths.same_z) the continuation and the integrals apply."""
    first, last = (path.start_z, path.end_z) if path.segments else (start, start)
    if not same_z(first, start):
        raise SchemaError(f"{where} starts at {first}, the start germ sits at {start}")
    if target is not None and not same_z(last, target):
        raise SchemaError(f"{where} ends at {last}, the target sits at {target}")


def _resolve_path(problem: Problem, args) -> tuple[BasePath, str]:
    """The path of --path, --path-json or --loop, and how to name it in a refusal."""
    name, inline, loop = args.path, args.path_json, args.loop
    given = [x for x in (name, inline, loop) if x]
    if len(given) != 1:
        raise SchemaError("give exactly one of --path, --path-json, --loop")
    if name:
        if name not in problem.paths:
            raise SchemaError(f"path {name!r} not defined in the problem file")
        return problem.paths[name], f"path {name!r}"
    if inline:
        path = parse_path_json(_parse_json(inline, "--path-json"), where="--path-json")
        return path, "--path-json"
    parts = loop.split(",")
    if len(parts) not in (4, 6):
        raise SchemaError("--loop expects CX,CY,R,TURNS[,AX,AY]")
    nums = _parse_reals(parts, "--loop", loop)
    if not nums[3].is_integer():
        raise SchemaError(f"--loop TURNS must be an integer, got {parts[3]!r}")
    anchor = complex(nums[4], nums[5]) if len(parts) == 6 else None
    try:
        return loop_path(complex(nums[0], nums[1]), nums[2], int(nums[3]), anchor), "--loop"
    except ValueError as exc:
        raise SchemaError(f"--loop: {exc}") from exc


def _resolve_start(problem: Problem, args, inputs: dict) -> SurfacePoint:
    """The germ of --start-z/--start-w, else the problem's base; added to inputs."""
    sz, sw = args.start_z, args.start_w
    if (sz is None) != (sw is None):
        raise SchemaError("--start-z and --start-w must be given together")
    if sz is None and problem.base is None:
        raise SchemaError("no base germ in the problem file; pass --start-z/--start-w")
    start = problem.base if sz is None else SurfacePoint(
        _parse_complex_flag(sz, "--start-z"), _parse_complex_flag(sw, "--start-w"))
    inputs["start"] = _germ_json(start)
    return start


def _fit_flags(problem: Problem, args,
               inputs: dict) -> tuple[SurfacePoint, complex, Optional[tuple[int, int]]]:
    """Start germ, constant and degree bounds of a fit, with their inputs."""
    start = _resolve_start(problem, args, inputs)
    c = _parse_complex_flag(args.constant, "--constant")
    dn, dd = args.num_degree, args.den_degree
    if (dn is None) != (dd is None):
        raise SchemaError("--num-degree and --den-degree must be given together")
    # at most the parser's degree cap: a fit's retry grid holds 4 points per
    # circle per unit of the larger bound, and a fit that converges nowhere
    # scans every pair of degrees
    for flag, value in (("--num-degree", dn), ("--den-degree", dd)):
        if value is not None and not 0 <= value <= _MAX_DEGREE:
            raise SchemaError(f"{flag} must be from 0 to {_MAX_DEGREE}, got {value}")
    inputs["constant"] = _cpx(c)
    return start, c, None if dn is None else (dn, dd)


def _germ_json(p: SurfacePoint) -> dict:
    return {"z": _cpx(p.z), "w": _cpx(p.w)}


def _model_report(model) -> tuple[dict, list[str]]:
    diag = model.diagnostics
    out = {
        "k": model.k,
        "base": _germ_json(model.base),
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
    if not diag.constant_fine_den:
        return out, []
    return out, [f"the constant of integration C is not a Gaussian rational with denominator "
                 f"at most 10^6; it was snapped by {diag.constant_snap:.1e} to a larger "
                 "denominator, so the constant terms of the coefficients are approximate"]


def _plot_track(filename: str, eq: DefiningEquation, start: SurfacePoint, path: BasePath,
                tol: Tolerances) -> None:
    """--plot-data: the lift of the path from start, one CSV row per track sample."""
    import csv

    from .tracker import continue_branch

    samples = continue_branch(eq, start, path, tol).samples
    try:
        fh = open(filename, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"--plot-data {filename}: cannot be written: {exc.strerror}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "re_z", "im_z", "re_w", "im_w"])
        writer.writerows([format(v, ".17g") for v in (t, z.real, z.imag, w.real, w.imag)]
                         for t, z, w in samples)


# --- subcommands ----------------------------------------------------------------


def _critical(args, problem, tol, rng, inputs):
    crit = problem.eq.critical(tol)
    return {"points": [{"location": _cpx(p.location), "kind": p.kind} for p in crit.points]}, []


def _fiber(args, problem, tol, rng, inputs):
    z = _parse_complex_flag(args.z, "--z")
    inputs["z"] = _cpx(z)
    fiber = fiber_at(problem.eq, z, tol)
    return {"z": _cpx(z), "roots": [_cpx(r) for r in fiber.roots]}, []


def _monodromy(args, problem, tol, rng, inputs):
    loop, where = _resolve_path(problem, args)
    inputs["path"] = path_to_json(loop)
    if not (loop.segments and loop.is_closed()):
        raise SchemaError(f"{where} is {'open' if loop.segments else 'empty'}; "
                          "monodromy needs a closed loop")
    sigma = monodromy(problem.eq, loop, tol)
    if args.plot_data:
        w = fiber_at(problem.eq, loop.start_z, tol).roots[0]
        _plot_track(args.plot_data, problem.eq, SurfacePoint(loop.start_z, w), loop, tol)
    return {
        "permutation": list(sigma.image),
        "orbits": [list(o) for o in sigma.orbits()],
        "is_identity": sigma.is_identity(),
    }, []


def _puiseux(args, problem, tol, rng, inputs):
    from .puiseux import singular_elements

    point = _parse_complex_flag(args.point, "--point")
    inputs["point"] = _cpx(point)
    report = singular_elements(problem.eq, point, args.radius, tol)
    return {
        "center": _cpx(report.center),
        "cycles": [
            {
                "sheets": list(c.sheets),
                "classification": c.classification,
                "expansion": {
                    "m": c.expansion.m,
                    "u": c.expansion.u,
                    "residue": _cpx(c.expansion.residue),
                    "start_sheet": c.expansion.start_sheet,
                    "radius": c.expansion.radius,
                    "coefficients": [{"n": n, "value": _cpx(b)}
                                     for n, b in sorted(c.expansion.coeffs.items())],
                },
            }
            for c in report.cycles
        ],
    }, []


def _residues(args, problem, tol, rng, inputs):
    from .puiseux import _local_data

    crit = problem.eq.critical(tol)
    locations = [cp.location for cp in crit.points]
    # the turns of every center read in one pass, and with --contour-check
    # every center's outer turn integrated in one batch; the first refusal
    # in center order is raised
    if args.contour_check:
        from .quad import _integrated, _residue_lifts

        local = in_order(lambda cs: _integrated(*_residue_lifts(problem.eq, cs, args.radius, tol)),
                         locations)
    else:
        local = [(report, None) for report, _ in
                 in_order(lambda cs: _local_data(problem.eq, cs, args.radius, tol), locations)]
    centers = []
    for cp, (rep, loop_values) in zip(crit.points, local):
        cycles = [
            {
                "sheets": list(c.sheets),
                "m": c.expansion.m,
                "u": c.expansion.u,
                "classification": c.classification,
                "residue": _cpx(c.residue),
            }
            for c in rep.cycles
        ]
        if loop_values is not None:
            for entry, c, value in zip(cycles, rep.cycles, loop_values):
                rc = value / (2j * math.pi)
                entry.update(contour_residue=_cpx(rc), discrepancy=abs(rc - c.residue))
        centers.append({"center": _cpx(cp.location), "kind": cp.kind, "cycles": cycles})
    return {"centers": centers}, []


def _integrate(args, problem, tol, rng, inputs):
    from .quad import surface_integral

    path, where = _resolve_path(problem, args)
    inputs["path"] = path_to_json(path)
    start = _resolve_start(problem, args, inputs)
    _check_ends(where, path, start.z)
    res = surface_integral(problem.eq, start, path, tol)
    if args.plot_data:
        _plot_track(args.plot_data, problem.eq, start, path, tol)
    return {
        "value": _cpx(res.value),
        "error_estimate": res.error_estimate,
        "endpoint": _germ_json(res.endpoint),
        "closed_on_surface": res.closed_on_surface,
    }, []


def _audit(args, problem, tol, rng, inputs):
    from .quad import path_independence_audit

    start = _resolve_start(problem, args, inputs)
    target = SurfacePoint(
        _parse_complex_flag(args.target_z, "--target-z"),
        _parse_complex_flag(args.target_w, "--target-w"),
    )
    names = [n.strip() for n in args.paths.split(",") if n.strip()]
    missing = [n for n in names if n not in problem.paths]
    if missing:
        raise SchemaError(f"paths not defined in the problem file: {missing}")
    if len(set(names)) < 2:
        raise SchemaError(f"--paths needs two or more distinct path names, got {names}")
    paths = [problem.paths[n] for n in names]
    for name, path in zip(names, paths):
        _check_ends(f"path {name!r}", path, start.z, target.z)
    inputs["target"] = _germ_json(target)
    inputs["paths"] = names
    rep = path_independence_audit(problem.eq, start, target, paths, tol)
    if args.plot_data:
        for idx, path in enumerate(paths):
            _plot_track(f"{args.plot_data}.{idx}.csv", problem.eq, start, path, tol)
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
    }, []


def _antiderivative(args, problem, tol, rng, inputs):
    from .antideriv import build_antiderivative

    start, c, bounds = _fit_flags(problem, args, inputs)
    model = build_antiderivative(problem.eq, start, c, bounds=bounds, tol=tol, rng=rng)
    return _model_report(model)


def _family(args, problem, tol, rng, inputs):
    from .antideriv import build_antiderivative, constant_family

    start, c, bounds = _fit_flags(problem, args, inputs)
    shift = _parse_complex_flag(args.shift, "--shift")
    inputs["shift"] = _cpx(shift)
    model = build_antiderivative(problem.eq, start, c, bounds=bounds, tol=tol, rng=rng)
    results, warnings = _model_report(model)
    results["family_constant"] = _cpx(shift)
    results["family_coefficients"] = [str(b) for b in constant_family(model, shift)]
    return results, warnings


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
    parser.add_argument("--json-indent", type=int, default=_INDENT, metavar="N",
                        help=f"spaces per level of the report, 0 to {_MAX_INDENT} "
                             f"(default {_INDENT})")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report "
                             "(breaks byte-for-byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    path_flags = argparse.ArgumentParser(add_help=False)
    path_flags.add_argument("--path", metavar="NAME")
    path_flags.add_argument("--path-json", metavar="JSON")
    path_flags.add_argument("--loop", metavar="CX,CY,R,TURNS[,AX,AY]")
    start_flags = argparse.ArgumentParser(add_help=False)
    start_flags.add_argument("--start-z", metavar="RE[,IM]")
    start_flags.add_argument("--start-w", metavar="RE[,IM]")
    fit_flags = argparse.ArgumentParser(add_help=False, parents=[start_flags])
    fit_flags.add_argument("--constant", default="0", metavar="RE[,IM]")
    fit_flags.add_argument("--num-degree", type=int, default=None,
                           help=f"0 to {_MAX_DEGREE}; with --den-degree")
    fit_flags.add_argument("--den-degree", type=int, default=None,
                           help=f"0 to {_MAX_DEGREE}; with --num-degree")

    def add(name, run, help_text, *flag_groups):
        p = sub.add_parser(name, help=help_text, parents=flag_groups)
        p.add_argument("problem", help="problem JSON file")
        p.set_defaults(run=run)
        return p

    add("critical", _critical, "critical points with kinds")
    add("fiber", _fiber, "all k roots over a regular point").add_argument(
        "--z", required=True, metavar="RE[,IM]")
    add("monodromy", _monodromy, "sheet permutation of a closed loop", path_flags)
    p = add("puiseux", _puiseux, "Puiseux data of every cycle at a critical point")
    p.add_argument("--point", required=True, metavar="RE[,IM]")
    p.add_argument("--radius", type=float, default=None)
    p = add("residues", _residues, "residues of all singular elements")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--contour-check", action="store_true",
                   help="cross-check residues by contour integration")
    add("integrate", _integrate, "surface integral along a path", path_flags, start_flags)
    p = add("audit", _audit, "path-independence audit between two germs", start_flags)
    p.add_argument("--target-z", required=True, metavar="RE[,IM]")
    p.add_argument("--target-w", required=True, metavar="RE[,IM]")
    p.add_argument("--paths", required=True,
                   help="comma-separated path names from the problem file (two or more)")
    add("antiderivative", _antiderivative, "fit the defining equation of the antiderivative",
        fit_flags)
    add("family", _family, "antiderivative family member with a shifted constant",
        fit_flags).add_argument("--shift", required=True, metavar="RE[,IM]")
    return parser


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
    results, warnings = args.run(args, problem, tol, rng, inputs)
    return inputs, results, warnings


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    report = {"schema": "algebroid-report-v1", "command": args.command}
    code = 0
    indent = args.json_indent if 0 <= args.json_indent <= _MAX_INDENT else _INDENT
    try:
        if indent != args.json_indent:  # a vast indent pads every line of the report
            raise SchemaError(f"--json-indent must be 0 to {_MAX_INDENT}, got {args.json_indent}")
        inputs, results, warnings = _run(args)
    except (AlgebroidError, FileNotFoundError) as exc:
        name, code = ((type(exc).__name__, exc.exit_code) if isinstance(exc, AlgebroidError)
                      else ("FileNotFound", 2))
        report["error"] = {"type": name, "message": str(exc), "exit_code": code}
    else:
        report.update(inputs=inputs, results=results, warnings=warnings)
        if args.timing:
            report["timing_seconds"] = time.perf_counter() - started
    print(dumps_report(report, indent))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
