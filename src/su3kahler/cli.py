"""Command-line interface.

Subcommands: check (cone condition + consequences), isotropy (freeness and
stratum census), verify (numerical point certificates), generate (weights
from cone data), enumerate (search weight systems), cohomology (tables).

Reports are JSON on stdout. Exit codes: 0 all checks pass, 1 a
mathematical check fails, 2 input or usage error. Reports are byte-stable
across reruns; measured wall time is only emitted with --timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import operator
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import cohomology as coh
from . import isotropy as iso
from . import quadric as quad
from . import weights as wt
from .conegeom import _scalar, scalar_to_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class InputError(Exception):
    pass


def _load_json_source(source: str) -> dict:
    """Inline JSON (starts with '{') or a file path."""
    text = source
    if not source.lstrip().startswith("{"):
        path = Path(source)
        if not path.exists():
            raise InputError(f"config file not found: {source}")
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read config {source}: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise InputError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("top-level JSON object expected")
    return obj


def _problem(source: str) -> tuple[wt.WeightSystem | None, wt.DerivedConeData]:
    """The one config parser: a weight system {"wL", "wR"} or raw cone
    data {"A", "B"}; every rejected entry becomes an InputError.

    Cone data describes the weighted torus action directly; a weight
    system additionally pins the homomorphism pair (and may rescale the
    cone data by the integrality denominator).
    """
    obj = _load_json_source(source)
    try:
        if "wL" in obj or "wR" in obj:
            ws = wt.WeightSystem.from_json(obj)
            return ws, ws.derived
        if "A" in obj and "B" in obj:
            return None, wt.cone_data(obj["A"], obj["B"])
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc
    raise InputError("config needs either wL/wR (weights) or A/B (cone data)")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode(o, parts: list, nl: str) -> None:
    """Append the JSON text of o to parts, byte for byte as
    ``json.dumps(o, indent=2, sort_keys=True)`` writes it; nl is the
    newline and indentation of the line o starts on.

    One pass in place of the stdlib's pure-Python generators (its C
    encoder is not used when an indent is set). Type tests follow the
    stdlib's order, so subclasses of str/int/float/list/dict (np.float64)
    encode as their base and other objects (np.int64) raise TypeError.
    A module-level function, not a closure, so a call leaves no reference
    cycle behind.
    """
    if isinstance(o, str):
        parts.append(encode_basestring_ascii(o))
    elif o is None:
        parts.append("null")
    elif o is True:
        parts.append("true")
    elif o is False:
        parts.append("false")
    elif isinstance(o, int):
        parts.append(int.__repr__(o))
    elif isinstance(o, float):
        parts.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in o:
            parts.append(sep)
            sep = "," + inner
            _encode(item, parts, inner)
        parts.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {key.__class__.__name__}")
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _encode(value, parts, inner)
        parts.append(nl + "}")
    elif isinstance(o, _Rendered):
        parts.append(o.render(nl))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


class _Rendered:
    """A report value whose JSON text is ``render(nl)``, for nl the newline
    and indentation of the line the value starts on."""

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render


_GAP = _Rendered(lambda nl: "\0")  # a gap in a template: encoded strings escape "\0"


def _template(o, nl: str) -> tuple[str, ...]:
    """The text of o at nl, split at its gaps."""
    parts: list = []
    _encode(o, parts, nl)
    return tuple("".join(parts).split("\0"))


@functools.lru_cache(maxsize=256)
def _list_template(n: int, nl: str) -> tuple[str, ...]:
    return _template([_GAP] * n, nl)


@functools.lru_cache(maxsize=256)
def _stratum_template(pattern: iso.SupportPattern, realizable, nl: str) -> tuple[str, ...]:
    """A census entry of this pattern and verdict, with gaps for its
    isotropy group and witness point."""
    probe = iso.StratumReport(pattern, iso.IsotropyGroup(0, ()), realizable, None).to_json()
    return _template({**probe, "isotropy": _GAP, "witness_point": _GAP}, nl)


@functools.lru_cache(maxsize=256)
def _group_text(group: iso.IsotropyGroup, nl: str) -> str:
    return _template(group.to_json(), nl)[0]


def _census_text(census: list, nl: str) -> str:
    """``census_to_json(census)`` as encoded text, from cached templates."""
    inner = nl + "  "
    value_nl = inner + "  "
    template = _list_template(len(census), nl)
    parts: list = []
    for piece, r in zip(template, census):
        head, middle, tail = _stratum_template(r.pattern, r.realizable, inner)
        parts += (piece, head, _group_text(r.isotropy, value_nl), middle)
        _encode(r.witness_point, parts, value_nl)
        parts.append(tail)
    parts.append(template[-1])
    return "".join(parts)


@functools.lru_cache(maxsize=8)
def _certificate_template(nl: str):
    """A certificate's text at nl split at its values, and a getter of their
    fields in that order, read from a probe whose every field holds its name."""
    probe = quad.PointCertificate(*[(f.name,) for f in dataclasses.fields(quad.PointCertificate)])
    fields = [value[0] for _, value in sorted(probe.to_json().items())]
    return _template(dict.fromkeys(probe.to_json(), _GAP), nl), operator.attrgetter(*fields)


def _certificates_text(certificates: list, nl: str) -> str:
    """``[c.to_json() for c in certificates]`` as encoded text."""
    inner = nl + "  "
    value_nl = inner + "  "
    item_nl = value_nl + "  "
    template = _list_template(len(certificates), nl)
    cert_template, values = _certificate_template(inner)
    parts: list = []
    for piece, cert in zip(template, certificates):
        parts.append(piece)
        for key_text, x in zip(cert_template, values(cert)):
            parts.append(key_text)
            if type(x) is not tuple:
                _encode(x, parts, value_nl)
            else:  # the spectrum, floats only
                spectrum = ("," + item_nl).join(map(_float_text, x))
                parts.append("[" + item_nl + spectrum + value_nl + "]" if x else "[]")
        parts.append(cert_template[-1])
    parts.append(template[-1])
    return "".join(parts)


def encode_report(report) -> str:
    """The report as indented JSON with sorted keys and a final newline."""
    parts: list = []
    _encode(report, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _report(command: str, config: dict, results: dict, passed: bool, wall: float) -> dict:
    return {
        "command": command,
        "config": config,
        "results": results,
        "pass": passed,
        "wall_time_s": wall,
    }


def _monomial(v) -> str:
    parts = []
    for name, e in zip(("t1", "t2"), v):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append(f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def cmd_check(args) -> tuple[dict, bool]:
    if args.interp_steps < 1:
        raise InputError("--interp-steps must be >= 1")
    ws, d = _problem(args.config)
    report = wt.check_cone_condition(d)
    results = {
        "weights": None if ws is None else ws.to_json(),
        "derived": d.to_json(),
        "condition": report.to_json(),
        "interpolation": None,
    }
    passed = report.holds
    if report.holds:
        spec = wt.interpolation_spec(d, wt.default_interpolation_times(args.interp_steps))
        ok = wt.check_interpolation_path(d, spec)
        results["interpolation"] = {
            "base_coefficients": [scalar_to_json(spec.a), scalar_to_json(spec.b)],
            "times": [scalar_to_json(t) for t in spec.times],
            "ok": ok,
        }
        passed = passed and ok
    return results, passed


def cmd_isotropy(args) -> tuple[dict, bool]:
    ws, d = _problem(args.config)
    if not d.is_integer:
        raise InputError("isotropy analysis requires integer cone data")
    if not wt.cone_condition_holds(d):
        return {"error": "cone condition fails; isotropy analysis requires it"}, False
    verdict = iso.freeness_check(d, ws)
    census = iso.singular_stratum_census(d)
    results = {
        "weights": None if ws is None else ws.to_json(),
        "derived": d.to_json(),
        "freeness": verdict.to_json(),
        "classification": iso.Classification.of(verdict.free).value,
        "census": _Rendered(functools.partial(_census_text, census)),
    }
    return results, True


def cmd_verify(args) -> tuple[dict, bool]:
    if args.samples < 1:
        raise InputError("--samples must be >= 1")
    if args.seed < 0:
        raise InputError("--seed must be >= 0")
    for flag, value in (("--tol", args.tol), ("--tol-zero", args.tol_zero), ("--tol-pos", args.tol_pos)):
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"{flag} must be finite and > 0, got {value}")
    ws, d = _problem(args.config)
    condition_ok = wt.cone_condition_holds(d)
    tol = quad.Tolerances(residual=args.tol, zero=args.tol_zero, pos=args.tol_pos)
    # certify even without the cone condition when points exist, so that
    # failures surface as regular=false certificates rather than silence
    try:
        points = quad.certification_sample(d, args.samples, args.seed, tol=tol)
    except (ValueError, RuntimeError) as exc:
        return {"cone_condition": condition_ok, "error": f"sampling failed: {exc}"}, False
    apex = wt.check_level_set_conditions(d).apex_functional
    certificates = quad.certify_points(d, points, tol=tol)
    all_passed = condition_ok and all(cert.passed for cert in certificates)
    bound_residual = 0.0
    if apex is not None:
        # apex functional applied to the moment values must return its
        # value on C: a scale-covariant restatement of the residual, held
        # to 1e-10 relative to |apex| times the moment scale
        phi = quad.moment_map(d, (np.array([p.z for p in points]), np.array([p.w for p in points])))
        lhs = float(apex[0]) * phi[:, 0] + float(apex[1]) * phi[:, 1]
        rhs = float(apex[0] * d.c[0] + apex[1] * d.c[1])
        bound_residual = float(np.max(np.abs(lhs - rhs)))
        scale = math.hypot(float(apex[0]), float(apex[1])) * quad.moment_scale(d)
        if bound_residual > 1e-10 * scale:
            all_passed = False
    results = {
        "weights": None if ws is None else ws.to_json(),
        "cone_condition": condition_ok,
        "samples": args.samples,
        "seed": args.seed,
        "boundedness_residual": bound_residual,
        "certificates": _Rendered(functools.partial(_certificates_text, certificates)),
        "all_passed": all_passed,
    }
    return results, all_passed


def cmd_generate(args) -> tuple[dict, bool]:
    ws, d = _problem(args.config)
    if ws is not None:
        raise InputError("cone data needs keys 'A' and 'B'")
    solution = wt.weights_from_cone_data(d)
    results = solution.to_json()
    results["rho_L"] = [_monomial(v) for v in solution.system.wl]
    results["rho_R"] = [_monomial(v) for v in solution.system.wr]
    results["derived_check"] = wt.derive(solution.system).to_json()
    return results, True


def cmd_enumerate(args) -> tuple[dict, bool]:
    try:
        systems = wt.enumerate_admissible_systems(args.bound)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    count = 0
    free_count = 0
    for ws in systems:
        count += 1
        free_count += ws.free
        line = ws.to_json()
        line["free"] = ws.free
        line["classification"] = iso.Classification.of(ws.free).value
        sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    results = {"bound": args.bound, "count": count, "free_count": free_count}
    return results, True


def _parse_beta(args):
    if args.beta is not None:
        try:
            parts = [_scalar(p.strip()) for p in args.beta.split(",")]
        except ValueError as exc:
            raise InputError(f"bad --beta: {exc}") from exc
        if len(parts) != 2:
            raise InputError("--beta needs two comma-separated rationals")
        if parts[0] == 0 and parts[1] == 0:
            raise InputError("beta must be nonzero")
        return (parts[0], parts[1])
    if args.branch == "degenerate":
        return coh.DEGENERATE_BETA
    return coh.GENERIC_BETA


def cmd_cohomology(args) -> tuple[dict, bool]:
    beta = _parse_beta(args)
    algebra = coh.basic_model()
    basic_betti = [algebra.dim(k) for k in range(algebra.top + 1)]
    derham = coh.dga_cohomology(coh.build_derham_model())
    hodge = coh.hodge_model(beta)
    beta_str = [repr(b) if isinstance(b, coh.Eisenstein) else scalar_to_json(b) for b in beta]
    passed = (
        tuple(basic_betti) == coh.BASIC_BETTI
        and derham == coh.SU3_DERHAM_BETTI
        and hodge.branch in ((0, 0, 0), (1, 2, 1))
    )
    results = {
        "basic_betti": basic_betti,
        "derham_betti": list(derham),
        "derham_matches_su3": derham == coh.SU3_DERHAM_BETTI,
        "hodge": hodge.to_json(),
        "beta": beta_str,
    }
    return results, passed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3kahler",
        description="Exact cone-condition checks and numerical transverse-Kahler "
        "certification for double-sided torus actions on SU(3).",
    )
    parser.add_argument("--out", help="also write the JSON report to this path")
    parser.add_argument(
        "--timing", action="store_true", help="emit measured wall time (breaks byte-stability)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = 'weight system {"wL","wR"} or cone data {"A","B"}, inline JSON or path'

    p = sub.add_parser("check", help="cone condition, consequences, interpolation path")
    p.add_argument("--config", required=True, help=config_help)
    p.add_argument("--interp-steps", type=int, default=8, help="samples = k/steps, k=0..steps")

    p = sub.add_parser("isotropy", help="freeness, classification, stratum census")
    p.add_argument("--config", required=True, help=config_help)

    p = sub.add_parser("verify", help="pointwise numerical certificates")
    p.add_argument("--config", required=True, help=config_help)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--tol", type=float, default=1e-9,
        help="level-set residual tolerance for sample points (moment part relative to the data scale)",
    )
    p.add_argument("--tol-zero", type=float, default=1e-8)
    p.add_argument("--tol-pos", type=float, default=1e-6)

    p = sub.add_parser("generate", help="weight systems from cone data")
    p.add_argument("--config", required=True, help='{"A": [...], "B": [...]} (inline or path)')

    p = sub.add_parser("enumerate", help="stream weight systems passing the cone condition")
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("cohomology", help="basic/de Rham Betti tables and Hodge diamond")
    p.add_argument("--beta", help='two rationals "p/q,r/s" for the (1,0)-generator image')
    p.add_argument("--branch", choices=("generic", "degenerate"), default="generic")

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of :func:`main`, not at import.

    Parsing keeps no state in the parser, so one instance serves every call.
    """
    return build_parser()


_COMMANDS = {
    "check": cmd_check,
    "isotropy": cmd_isotropy,
    "verify": cmd_verify,
    "generate": cmd_generate,
    "enumerate": cmd_enumerate,
    "cohomology": cmd_cohomology,
}


def _config_echo(args) -> dict:
    skip = {"command", "out", "timing"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        results, passed = _COMMANDS[args.command](args)
        code = EXIT_PASS if passed else EXIT_FAIL
    except InputError as exc:
        code, results, passed = EXIT_USAGE, {"error": str(exc)}, False
    except (ValueError, RuntimeError) as exc:
        code, results, passed = EXIT_FAIL, {"error": str(exc)}, False
    wall = time.perf_counter() - start if args.timing else 0.0
    text = encode_report(_report(args.command, _config_echo(args), results, passed, wall))
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            error = {"error": f"cannot write --out {args.out}: {exc}"}
            code, text = EXIT_USAGE, encode_report(
                _report(args.command, _config_echo(args), error, False, wall)
            )
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
