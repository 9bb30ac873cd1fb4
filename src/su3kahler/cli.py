"""Command-line interface.

Subcommands: check (cone condition + consequences), isotropy (freeness and
stratum census), verify (numerical point certificates), generate (weights
from cone data), enumerate (search weight systems), cohomology (tables).

Reports are JSON on stdout. Exit codes: 0 all checks pass, 1 a
mathematical check fails or stdout was closed early (a broken pipe, as
in ``su3kahler enumerate --bound 3 | head``: the rest of the output is
dropped without a traceback), 2 input or usage error, reported in the
same envelope (a usage error with the command argparse reached, or null,
and an empty config). Reports are byte-stable across reruns; measured
wall time is only emitted with --timing.

The options are declared once, in one table (``_GLOBAL_OPTIONS`` and
``_TABLE``): flag, type, default or required, choices and help per
command. :func:`build_parser` makes argparse's parser from it, and
``_read_argv`` reads the argv written in the table's plain grammar
without argparse; every other argv (help, abbreviations,
``--flag=value``, usage errors) goes to argparse, which keeps its
behaviour for it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import operator
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import cohomology as coh
from . import isotropy as iso
from . import quadric as quad
from . import weights as wt
from .conegeom import ConeMembership, MembershipStatus, _scalar, scalar_to_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Ceilings of the counts a command allocates for, checked before anything
# is allocated.
MAX_SAMPLES = 10**5
MAX_INTERP_STEPS = 10**4


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


def _rendered(text, *args) -> _Rendered:
    """The report value written by ``text(*args, nl)``."""
    return _Rendered(functools.partial(text, *args))


def _gap(key: int, quoted: bool = False) -> _Rendered:
    """The gap of a template for the value of this key, inside a string's
    quotes if quoted. Its text holds the key and the newline and indentation
    of its line, between NULs, which encoded strings always escape."""
    return _Rendered(lambda nl: f'"\0{key}\0{nl}\0"' if quoted else f"\0{key}\0{nl}\0")


def _keyed(o, keys):
    """o with each leaf replaced by a gap keyed by the next of keys (in the
    order o lists its leaves), quoted for a str; None (an absent value)
    stays."""
    if isinstance(o, (list, tuple)):
        return [_keyed(x, keys) for x in o]
    if isinstance(o, dict):
        return {k: _keyed(v, keys) for k, v in o.items()}
    return None if o is None else _gap(next(keys), isinstance(o, str))


def _template(form, nl: str):
    """The text of form at nl split at its gaps: the pieces between them,
    and the key and the newline and indentation of each gap, in text order."""
    parts: list = []
    _encode(form, parts, nl)
    split = "".join(parts).split("\0")
    return tuple(split[::3]), tuple(zip(map(int, split[1::3]), split[2::3]))


def _fill(template, values) -> str:
    """A template's text with str(values[k]) in each gap of key k. A value is
    a JSON text, an int (not a bool), whose str() is the encoder's text of
    it, or, in a string gap, an int or a Fraction, whose str() is
    ``scalar_to_json`` of it: digits, "-" and "/", which need no escape."""
    pieces, slots = template
    parts: list = [None] * (2 * len(pieces) - 1)
    parts[::2] = pieces
    parts[1::2] = [str(values[k]) for k, _ in slots]
    return "".join(parts)


def _encode_fill(template, values, parts: list) -> None:
    """Append a template's text to parts with the encoder's text of
    values[k] in each gap of key k, at the gap's newline and indentation."""
    pieces, slots = template
    parts.append(pieces[0])
    for (k, nl), piece in zip(slots, pieces[1:]):
        _encode(values[k], parts, nl)
        parts.append(piece)


@functools.lru_cache(maxsize=16)  # weights and derived, at each nl they are written at
def _leaf_template(cls, nl: str):
    """The dict form of a WeightSystem or DerivedConeData (cls) at nl, with
    a gap for each entry keyed by its position among the entries of the
    fields in order, the order in which the dict form lists them."""
    zero = ((0, 0),) * 3
    probe = wt.WeightSystem(zero, zero) if cls is wt.WeightSystem else wt.DerivedConeData(zero, zero, (0, 0))
    return _template(_keyed(probe.to_json(), itertools.count()), nl)


def _weights_text(ws: wt.WeightSystem, nl: str) -> str:
    """``ws.to_json()`` as encoded text."""
    return _fill(_leaf_template(wt.WeightSystem, nl), [*itertools.chain(*ws.wl, *ws.wr)])


def _derived_text(d: wt.DerivedConeData, nl: str) -> str:
    """``d.to_json()`` as encoded text."""
    return _fill(_leaf_template(wt.DerivedConeData, nl), [*itertools.chain(*d.a, *d.b, d.c)])


# The template caches are sized from their distinct keys over one pass of
# the audit pool (10673 ops, 5335 of them check): 9 level-set shapes, 2
# condition frames, 93 table shapes.
@functools.lru_cache(maxsize=32)  # every verdict and presence shape at one nl
def _level_set_template(nonempty, regular, compact, witness: bool, apex: bool, nl: str):
    """A level-set block of these verdicts, with gaps for the entries of
    the witness and the apex functional (when present), keyed by their
    positions in (*witness, *apex), the order in which the dict form lists
    them."""
    form = wt.LevelSetConditions(
        nonempty, (0, 0, 0, 0) if witness else None, regular, compact, (0, 0) if apex else None
    ).to_json()
    keys = itertools.count()
    for key, value in form.items():
        if isinstance(value, (dict, list)):  # the witness or the apex functional
            form[key] = _keyed(value, keys)
    return _template(form, nl)


def _level_set_text(ls: wt.LevelSetConditions, nl: str) -> str:
    """``ls.to_json()`` as encoded text."""
    witness, apex = ls.nonempty_witness, ls.apex_functional
    template = _level_set_template(
        ls.nonempty, ls.regular, ls.compact, witness is not None, apex is not None, nl
    )
    return _fill(template, (*(witness or ()), *(apex or ())))


def _level_set_probe() -> wt.LevelSetConditions:
    return wt.LevelSetConditions(False, None, False, False, None)


@functools.lru_cache(maxsize=4)  # holds or not, at the one nl of a check report
def _condition_frame(holds: bool, nl: str):
    """A condition report with a gap for each table and for the level-set
    block, keyed by their positions in (a_pairs, b_pairs, mixed_pairs,
    level_set), the order in which the dict form lists them."""
    form = wt.ConditionReport(holds, {}, {}, {}, _level_set_probe()).to_json()
    keys = itertools.count()
    return _template({k: _gap(next(keys)) if isinstance(v, dict) else v for k, v in form.items()}, nl)


@functools.lru_cache(maxsize=256)
def _table_template(pairs, shapes, nl: str):
    """A condition table with these pair keys whose memberships, in table
    order, have these (status value, coefficients absent) shapes, with a
    gap for each coefficient keyed by its position among the coefficients
    present, in table order. Read off a probe report that holds the table,
    whose coefficients are their positions."""
    positions = itertools.count()
    table = {
        ij: ConeMembership(MembershipStatus(status), None if absent else (next(positions), next(positions)))
        for ij, (status, absent) in zip(pairs, shapes)
    }
    form = wt.ConditionReport(False, table, {}, {}, _level_set_probe()).to_json()["A_pairs"]
    for entry in form.values():
        if "coefficients" in entry:
            entry["coefficients"] = _keyed(entry["coefficients"], map(int, entry["coefficients"]))
    return _template(form, nl)


def _table_text(table: dict, nl: str) -> str:
    """A condition table (one of a report's three) as encoded text."""
    memberships = table.values()
    # status values, not members: a str caches its hash, an enum member
    # hashes through a Python-level __hash__
    shapes = tuple([(m.status._value_, m.coefficients is None) for m in memberships])
    values = [x for m in memberships if m.coefficients is not None for x in m.coefficients]
    return _fill(_table_template(tuple(table), shapes, nl), values)


def _condition_text(report: wt.ConditionReport, nl: str) -> str:
    """``report.to_json()`` as encoded text."""
    inner = nl + "  "
    texts = [_table_text(table, inner) for table in (report.a_pairs, report.b_pairs, report.mixed_pairs)]
    texts.append(_level_set_text(report.level_set, inner))
    return _fill(_condition_frame(report.holds, nl), texts)


def _interpolation_json(spec: wt.InterpolationSpec, ok: bool) -> dict:
    """The interpolation block of a ``check`` report."""
    return {
        "base_coefficients": [scalar_to_json(spec.a), scalar_to_json(spec.b)],
        "times": [scalar_to_json(t) for t in spec.times],
        "ok": ok,
    }


@functools.lru_cache(maxsize=8)
def _interpolation_template(steps: int, ok: bool, nl: str):
    """The interpolation block at the default times of ``steps``, with gaps
    for the base coefficients (a, b)."""
    probe = wt.InterpolationSpec(1, 1, wt.default_interpolation_times(steps))
    form = _interpolation_json(probe, ok)
    form["base_coefficients"] = _keyed(form["base_coefficients"], itertools.count())
    return _template(form, nl)


def _interpolation_text(spec: wt.InterpolationSpec, ok: bool, steps: int, nl: str) -> str:
    """``_interpolation_json(spec, ok)`` as encoded text, for spec.times the
    default times of ``steps``."""
    return _fill(_interpolation_template(steps, ok, nl), (spec.a, spec.b))


# One census shape over the 3870 census reports of the audit pool, and
# over all 64656 systems of the bound-3 enumeration.
@functools.lru_cache(maxsize=8)
def _census_template(shapes, nl: str):
    """A census whose entries, in list order, have these (I, J, verdict,
    group rank, number of factors, witness absent) shapes, with gaps for
    each group's numbers and each witness point's entries, keyed by their
    positions in the census's values: per entry, its group's numbers in the
    order its dict form lists them, then its witness point's entries. Also,
    for a positive-dimensional and a finite group, the attributes that hold
    those numbers: the keys of a probe group's dict form that hold numbers,
    which name its attributes."""
    keys = itertools.count()
    entries = []
    for i_set, j_set, realizable, rank, n_factors, absent in shapes:
        group = iso.IsotropyGroup(rank, (1,) * n_factors)
        probe = iso.StratumReport(
            iso.SupportPattern(i_set, j_set), group, realizable, None if absent else (0, 0)
        ).to_json()
        isotropy = {k: v if isinstance(v, str) else _keyed(v, keys) for k, v in probe["isotropy"].items()}
        entries.append({**probe, "isotropy": isotropy, "witness_point": _keyed(probe["witness_point"], keys)})
    fields = [
        tuple(k for k, v in group.to_json().items() if not isinstance(v, str))
        for group in (iso.IsotropyGroup(1, ()), iso.IsotropyGroup(2, (1, 1)))
    ]
    return _template(entries, nl), fields


def _group_numbers(group: iso.IsotropyGroup, fields) -> list:
    """The values of the attributes that fields names for the group's kind,
    the factors spread."""
    numbers: list = []
    for name in fields[group.is_finite]:
        value = getattr(group, name)
        numbers += value if type(value) is tuple else (value,)
    return numbers


def _census_text(census: list, nl: str) -> str:
    """``census_to_json(census)`` as encoded text, from one cached template
    per sequence of entry shapes."""
    shapes = [
        (r.pattern.i_set, r.pattern.j_set, r.realizable, r.isotropy.rank, len(r.isotropy.factors),
         r.witness is None)
        for r in census
    ]
    template, fields = _census_template(tuple(shapes), nl)
    numbers: dict = {}  # by group object; a census shares a few
    values: list = []
    for r in census:
        group = r.isotropy
        if id(group) not in numbers:
            numbers[id(group)] = _group_numbers(group, fields)
        values += numbers[id(group)]
        if r.witness is not None:
            values += r.witness
    return _fill(template, values)


@functools.lru_cache(maxsize=8)
def _certificate_template(nl: str):
    """A certificate's text at nl with a gap for each value, keyed by the
    position of its field, and a getter of the fields' values in that
    order. Read off a probe whose every field holds its position."""
    fields = [f.name for f in dataclasses.fields(quad.PointCertificate)]
    probe = quad.PointCertificate(*[(k,) for k in range(len(fields))])
    form = {key: _gap(value[0]) for key, value in probe.to_json().items()}
    return _template(form, nl), operator.attrgetter(*fields)


def _certificates_text(certificates: list, nl: str) -> str:
    """``[c.to_json() for c in certificates]`` as encoded text."""
    if not certificates:
        return "[]"
    inner = nl + "  "
    (pieces, slots), values_of = _certificate_template(inner)
    gaps = tuple(zip(slots, pieces[1:]))
    parts: list = []
    sep = "[" + inner
    for cert in certificates:
        parts += (sep, pieces[0])
        sep = "," + inner
        values = values_of(cert)
        for (k, value_nl), piece in gaps:
            x = values[k]
            if type(x) is not tuple:
                _encode(x, parts, value_nl)
            else:  # the spectrum, floats only
                item_nl = value_nl + "  "
                spectrum = ("," + item_nl).join(map(_float_text, x))
                parts.append("[" + item_nl + spectrum + value_nl + "]" if x else "[]")
            parts.append(piece)
    parts.append(nl + "]")
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


# One pass over the audit pool meets 4 envelopes (check; isotropy with a
# census or an error; cohomology); six commands with at most three result
# key sets each fit in 32.
@functools.lru_cache(maxsize=32)
def _envelope_template(command: str, config_keys: tuple, result_keys: tuple):
    """The envelope of a ``command`` report with these config and result
    keys, as ``encode_report(_report(...))`` writes it, with a gap for each
    value keyed by its position in (*config values, *result values, pass,
    wall time)."""
    keys = itertools.count()
    config = {key: _gap(next(keys)) for key in config_keys}
    results = {key: _gap(next(keys)) for key in result_keys}
    return _template(_report(command, config, results, _gap(next(keys)), _gap(next(keys))), "\n")


def _report_text(command: str, config: dict, results: dict, passed: bool, wall: float) -> str:
    """``encode_report(_report(command, config, results, passed, wall))``,
    from one cached envelope per command and key sets; each value is
    encoded in its gap."""
    template = _envelope_template(command, tuple(config), tuple(results))
    parts: list = []
    _encode_fill(template, (*config.values(), *results.values(), passed, wall), parts)
    parts.append("\n")
    return "".join(parts)


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
    if args.interp_steps > MAX_INTERP_STEPS:
        raise InputError(f"--interp-steps must be <= {MAX_INTERP_STEPS}")
    ws, d = _problem(args.config)
    report = wt.check_cone_condition(d)
    results = {
        "weights": None if ws is None else _rendered(_weights_text, ws),
        "derived": _rendered(_derived_text, d),
        "condition": _rendered(_condition_text, report),
        "interpolation": None,
    }
    passed = report.holds
    if report.holds:
        spec = wt.interpolation_spec(d, wt.default_interpolation_times(args.interp_steps))
        ok = wt.check_interpolation_path(d, spec)
        results["interpolation"] = _rendered(_interpolation_text, spec, ok, args.interp_steps)
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
        "weights": None if ws is None else _rendered(_weights_text, ws),
        "derived": _rendered(_derived_text, d),
        "freeness": verdict.to_json(),
        "classification": iso.Classification.of(verdict.free).value,
        "census": _rendered(_census_text, census),
    }
    return results, True


def cmd_verify(args) -> tuple[dict, bool]:
    if args.samples < 1:
        raise InputError("--samples must be >= 1")
    if args.samples > MAX_SAMPLES:
        raise InputError(f"--samples must be <= {MAX_SAMPLES}")
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
        "weights": None if ws is None else _rendered(_weights_text, ws),
        "cone_condition": condition_ok,
        "samples": args.samples,
        "seed": args.seed,
        "boundedness_residual": bound_residual,
        "certificates": _rendered(_certificates_text, certificates),
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


class _RowTexts(dict):
    """The JSON text of each weight-grid row as a side of a stream line,
    made on first use. One table serves every bound: a row's text does not
    depend on it."""

    def __missing__(self, row):
        text = self[row] = json.dumps([list(v) for v in row])
        return text


_ROW_TEXTS = _RowTexts()


@functools.lru_cache(maxsize=2)
def _line_template(free: bool) -> tuple[str, ...]:
    """A stream line of a system with this verdict, split where its wL and
    wR texts go."""
    zero = ((0, 0),) * 3
    line = dict.fromkeys(wt.WeightSystem(zero, zero).to_json(), "\0")
    line.update(free=free, classification=iso.Classification.of(free).value)
    return tuple(json.dumps(line, sort_keys=True).split(json.dumps("\0")))


def _stream_blocks(systems):
    """For each wL block of the stream: the text of its lines, its system
    count and its free count. A system's line is ``json.dumps(line,
    sort_keys=True)`` and a newline, for line its ``to_json()`` with its
    ``free`` verdict and classification added."""
    templates = [_line_template(free) for free in (False, True)]
    end = templates[0][-1] + "\n"
    for wl, block in itertools.groupby(systems, operator.attrgetter("wl")):
        wl_text = _ROW_TEXTS[wl]
        starts = [head + wl_text + middle for head, middle, _ in templates]  # by verdict
        block = list(block)
        lines = [starts[ws.free] + _ROW_TEXTS[ws.wr] for ws in block]
        yield end.join(lines) + end, len(block), sum(ws.free for ws in block)


def cmd_enumerate(args) -> tuple[dict, bool]:
    try:
        systems = wt.enumerate_admissible_systems(args.bound)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    count = 0
    free_count = 0
    write = sys.stdout.write
    for text, n, n_free in _stream_blocks(systems):
        write(text)
        count += n
        free_count += n_free
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


class _Option(NamedTuple):
    """One option of the CLI: its flag, the type argparse converts its value
    with (bool for a switch that takes no value), its default, whether it is
    required, its choices and its help."""

    flag: str
    type: type = str
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        """The attribute argparse stores the value in."""
        return self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    """A command: the function that runs it, its help and its options."""

    run: Callable
    help: str
    options: tuple[_Option, ...]


_CONFIG = _Option(
    "--config", required=True, help='weight system {"wL","wR"} or cone data {"A","B"}, inline JSON or path'
)

# The CLI surface, declared once: build_parser() makes argparse's parser
# from it, and _read_argv() reads the argv written in its plain grammar.
_GLOBAL_OPTIONS = (
    _Option("--out", help="also write the JSON report to this path"),
    _Option("--timing", bool, False, help="emit measured wall time (breaks byte-stability)"),
)
_TABLE = {
    "check": _Command(cmd_check, "cone condition, consequences, interpolation path", (
        _CONFIG,
        _Option("--interp-steps", int, 8, help="samples = k/steps, k=0..steps"),
    )),
    "isotropy": _Command(cmd_isotropy, "freeness, classification, stratum census", (_CONFIG,)),
    "verify": _Command(cmd_verify, "pointwise numerical certificates", (
        _CONFIG,
        _Option("--samples", int, 100),
        _Option("--seed", int, 0),
        _Option(
            "--tol", float, 1e-9,
            help="level-set residual tolerance for sample points (moment part relative to the data scale)",
        ),
        _Option("--tol-zero", float, 1e-8),
        _Option("--tol-pos", float, 1e-6),
    )),
    "generate": _Command(cmd_generate, "weight systems from cone data", (
        _Option("--config", required=True, help='{"A": [...], "B": [...]} (inline or path)'),
    )),
    "enumerate": _Command(cmd_enumerate, "stream weight systems passing the cone condition", (
        _Option("--bound", int, required=True),
    )),
    "cohomology": _Command(cmd_cohomology, "basic/de Rham Betti tables and Hodge diamond", (
        _Option("--beta", help='two rationals "p/q,r/s" for the (1,0)-generator image'),
        _Option("--branch", choices=("generic", "degenerate"), default="generic"),
    )),
}
_COMMANDS = {name: command.run for name, command in _TABLE.items()}


class _Parser(argparse.ArgumentParser):
    """argparse's parser with its usage errors raised as InputError (its
    subparsers are of the same class), so that they end in the envelope."""

    def error(self, message):
        raise InputError(message)


def _add_options(parser: argparse.ArgumentParser, options) -> None:
    for o in options:
        if o.type is bool:
            parser.add_argument(o.flag, action="store_true", help=o.help)
        else:
            parser.add_argument(
                o.flag, type=o.type, default=o.default, required=o.required, choices=o.choices, help=o.help
            )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="su3kahler",
        description="Exact cone-condition checks and numerical transverse-Kahler "
        "certification for double-sided torus actions on SU(3).",
    )
    _add_options(parser, _GLOBAL_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _TABLE.items():
        _add_options(sub.add_parser(name, help=command.help), command.options)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first argv the table refuses, not at import.

    Parsing keeps no state in the parser, so one instance serves every call.
    """
    return build_parser()


class _Grammar(NamedTuple):
    """Options by flag as (attribute, type, choices), the attributes'
    defaults and the required attributes."""

    options: dict
    defaults: dict
    required: frozenset


def _grammar(options) -> _Grammar:
    return _Grammar(
        {o.flag: (o.dest, o.type, o.choices) for o in options},
        {o.dest: o.default for o in options},
        frozenset(o.dest for o in options if o.required),
    )


_GLOBAL_GRAMMAR = _grammar(_GLOBAL_OPTIONS)
_COMMAND_GRAMMARS = {name: _grammar(command.options) for name, command in _TABLE.items()}


def _read_argv(argv) -> argparse.Namespace | None:
    """The namespace argparse makes of argv when argv is written in the
    table's plain grammar, and None otherwise.

    The grammar: global options, then a command, then its options; every
    flag spelled in full and given at most once, every value the next
    string, which must not start with "-", converted by the call argparse
    makes (int, float or str) and checked against the choices. Anything
    else (-h, abbreviations, --flag=value, repeats, negative numbers,
    missing or malformed values) is left to argparse, which keeps its
    behaviour for them.
    """
    grammar = _GLOBAL_GRAMMAR
    attrs = dict(grammar.defaults)
    seen: set = set()
    k, n = 0, len(argv)
    while k < n:
        arg = argv[k]
        option = grammar.options.get(arg)
        if option is None:  # the command, once, after the global options
            if "command" in attrs or arg not in _COMMAND_GRAMMARS:
                return None
            attrs["command"] = arg
            grammar = _COMMAND_GRAMMARS[arg]
            attrs.update(grammar.defaults)
            k += 1
            continue
        dest, convert, choices = option
        if dest in seen:
            return None
        seen.add(dest)
        if convert is bool:
            attrs[dest] = True
            k += 1
            continue
        if k + 1 == n:
            return None
        value = argv[k + 1]
        if value.startswith("-"):
            return None
        try:
            value = convert(value)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        attrs[dest] = value
        k += 2
    if "command" not in attrs or not grammar.required <= seen:
        return None
    return argparse.Namespace(**attrs)


def _config_echo(args) -> dict:
    skip = {"command", "out", "timing"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout (as `su3kahler enumerate ... | head` does):
        # point stdout at devnull so the flush at exit is quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL
    return code


def _run(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = argparse.Namespace()
        try:
            _parser().parse_args(argv, args)
        except SystemExit as exc:  # -h/--help, printed to stdout
            return EXIT_USAGE if exc.code not in (0, None) else 0
        except InputError as exc:
            # argparse stores the command once it has checked the name
            command = getattr(args, "command", None)
            sys.stdout.write(_report_text(command, {}, {"error": str(exc)}, False, 0.0))
            return EXIT_USAGE
    start = time.perf_counter()
    try:
        results, passed = _COMMANDS[args.command](args)
        code = EXIT_PASS if passed else EXIT_FAIL
    except InputError as exc:
        code, results, passed = EXIT_USAGE, {"error": str(exc)}, False
    except (ValueError, RuntimeError) as exc:
        code, results, passed = EXIT_FAIL, {"error": str(exc)}, False
    wall = time.perf_counter() - start if args.timing else 0.0
    config = _config_echo(args)
    text = _report_text(args.command, config, results, passed, wall)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            error = {"error": f"cannot write --out {args.out}: {exc}"}
            code, text = EXIT_USAGE, _report_text(args.command, config, error, False, wall)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
