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

``check`` and ``isotropy`` write every exact number of their reports
from integers read off the cone data's sign table
(``weights._condition_evidence``, ``isotropy._census_evidence``), each
quotient n/d as text while the report renders, into templates keyed by
the shape of the text; no ``Fraction`` or report object is built per op.

This module does not import numpy. ``verify`` imports the float layer,
:mod:`su3kahler.quadric`, when it runs, and ``enumerate`` loads numpy
through the search's grid; ``check``, ``isotropy``, ``cohomology`` and
``generate`` never load it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

from . import cohomology as coh
from . import isotropy as iso
from . import weights as wt
from .conegeom import ConeMembership, MembershipStatus, _quotient_text, _scalar, scalar_to_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Ceilings of the counts a command allocates for, checked before anything
# is allocated.
MAX_SAMPLES = 10**5
MAX_INTERP_STEPS = 10**4
# A config file is read up to this many bytes and one more; a longer one
# (`--config /dev/zero`) is refused rather than read until memory runs out.
MAX_CONFIG_BYTES = 2**20


class InputError(Exception):
    pass


def _load_json_source(source: str) -> dict:
    """Inline JSON (starts with '{') or a file path."""
    text = source
    if not source.lstrip().startswith("{"):
        path = Path(source)
        try:  # exists() itself raises OSError on a name too long for the system
            if not path.exists():
                raise InputError(f"config file not found: {source}")
            with path.open("rb") as f:
                data = f.read(MAX_CONFIG_BYTES + 1)
            text = data.decode()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read config {source}: {exc}") from exc
        if len(data) > MAX_CONFIG_BYTES:
            raise InputError(f"config {source} is larger than {MAX_CONFIG_BYTES} bytes")
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, deep nesting
        raise InputError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("top-level JSON object expected")
    return obj


# The keys of a weight system config.
_WEIGHT_KEYS = frozenset(("wL", "wR"))


def _problem(source: str) -> tuple[wt.WeightSystem | None, wt.DerivedConeData]:
    """The one config parser: a weight system {"wL", "wR"} or raw cone
    data {"A", "B"}; every rejected entry becomes an InputError, and so does
    a config with a key of neither kind or keys of both, naming them. A
    config of exactly the weight keys, the usual one, goes to the weight
    system without building a key set.

    Cone data describes the weighted torus action directly; a weight
    system additionally pins the homomorphism pair (and may rescale the
    cone data by the integrality denominator).
    """
    obj = _load_json_source(source)
    weights = obj.keys() == _WEIGHT_KEYS
    if not weights:
        weight_keys, cone_keys = obj.keys() & _WEIGHT_KEYS, obj.keys() & {"A", "B"}
        unknown = obj.keys() - weight_keys - cone_keys
        if unknown:
            raise InputError(
                f"unknown config keys {sorted(unknown)}: expected wL/wR (weights) or A/B (cone data)"
            )
        if weight_keys and cone_keys:
            raise InputError(
                f"config mixes weight keys {sorted(weight_keys)} with cone data keys {sorted(cone_keys)}: "
                "give one of them"
            )
        weights = bool(weight_keys)
    try:
        if weights:
            ws = wt.WeightSystem.from_json(obj)
            return ws, ws.derived
        if len(obj) == 2:  # both cone data keys, and nothing else
            return None, wt.cone_data(obj["A"], obj["B"])
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc
    raise InputError("config needs either wL/wR (weights) or A/B (cone data)")


class _Rendered:
    """A report value whose JSON text is ``render(nl)``, for nl the newline
    and indentation of the line the value starts on."""

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render


def _rendered(text, *args) -> _Rendered:
    """The report value written by ``text(*args, nl)``."""
    return _Rendered(functools.partial(text, *args))


def _text(o, nl: str) -> str:
    """The JSON text of o on a line whose newline and indentation is nl,
    byte for byte as ``json.dumps(o, indent=2, sort_keys=True)`` writes it
    there; a _Rendered value writes itself. A str, an int, a bool, None or
    a finite float is written here, as the stdlib writes it (subclasses as
    their base), anything else by ``json.dumps``."""
    if isinstance(o, _Rendered):
        return o.render(nl)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float) and math.isfinite(o):
        return float.__repr__(o)
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", nl)


def _gap(key: int, quoted: bool = False) -> str:
    """The gap of a template for the value of this key, inside a string's
    quotes if quoted: a control character and the key, which json.dumps
    writes as \\u0000key inside quotes or "\\u0001key" for a bare gap, since
    it escapes every control character."""
    return ("\0" if quoted else "\1") + str(key)


# A gap in json.dumps's text: a quoted one, or a bare one with its quotes.
_GAP = re.compile(r'\\u0000(\d+)|"\\u0001(\d+)"')


def _keyed(o, keys):
    """o with each leaf replaced by a gap keyed by the next of keys (in the
    order o lists its leaves), quoted for a str; None (an absent value) and
    bools (verdicts) stay."""
    if isinstance(o, (list, tuple)):
        return [_keyed(x, keys) for x in o]
    if isinstance(o, dict):
        return {k: _keyed(v, keys) for k, v in o.items()}
    return o if o is None or isinstance(o, bool) else _gap(next(keys), isinstance(o, str))


def _template(form, nl: str):
    """The text of form at nl, compiled for :func:`_fill`: a %-format of
    its pieces between the gaps, each ``%`` doubled and ``%s`` at each
    gap, and a getter of the gaps' keys, in text order, from the values,
    which returns a tuple (one key's value wrapped, none for no keys)."""
    split = _GAP.split(json.dumps(form, indent=2, sort_keys=True).replace("\n", nl))
    keys = [int(q or b) for q, b in zip(split[1::3], split[2::3])]
    fmt = "%s".join(piece.replace("%", "%%") for piece in split[::3])
    if len(keys) > 1:
        return fmt, operator.itemgetter(*keys)
    if keys:
        key = keys[0]
        return fmt, lambda values: (values[key],)
    return fmt, lambda values: ()


def _fill(template, values) -> str:
    """A template's text with str(values[k]) in each gap of key k, by one
    ``%``. A value is a JSON text, an int (not a bool), whose str() is
    json.dumps's text of it, or, in a string gap, an int or a Fraction,
    whose str() is ``scalar_to_json`` of it: digits, "-" and "/", which
    need no escape."""
    fmt, getter = template
    return fmt % getter(values)


# The dict form of each block written from a leaf template, with zeros for
# its entries, by kind: freeness has one form per verdict, its failing pair
# null or present.
_ZERO = ((0, 0),) * 3
_LEAF_PROBES = {
    "weights": wt.WeightSystem(_ZERO, _ZERO),
    "derived": wt.DerivedConeData(_ZERO, _ZERO, (0, 0)),
    "free": iso.FreenessVerdict(None),
    "orbifold": iso.FreenessVerdict((0, 0, 0)),
}


@functools.lru_cache(maxsize=16)  # the four kinds, at each nl they are written at
def _leaf_template(kind: str, nl: str):
    """The dict form of the probe of this kind at nl, with a gap for each
    entry keyed by its position in the order the dict form lists them."""
    return _template(_keyed(_LEAF_PROBES[kind].to_json(), itertools.count()), nl)


def _weights_text(ws: wt.WeightSystem, nl: str) -> str:
    """``ws.to_json()`` as encoded text."""
    return _fill(_leaf_template("weights", nl), [*itertools.chain(*ws.wl, *ws.wr)])


def _derived_text(d: wt.DerivedConeData, nl: str) -> str:
    """``d.to_json()`` as encoded text."""
    return _fill(_leaf_template("derived", nl), [*itertools.chain(*d.a, *d.b, d.c)])


def _freeness_text(verdict: iso.FreenessVerdict, nl: str) -> str:
    """``verdict.to_json()`` as encoded text, for a verdict without a
    classification (so consistent)."""
    kind = "free" if verdict.free else "orbifold"
    return _fill(_leaf_template(kind, nl), verdict.failing_pair or ())


# The template caches are sized from their distinct keys over one pass of
# the audit pool (10673 ops, 5335 of them check): 9 condition frames, 93
# table shapes.
@functools.lru_cache(maxsize=16)  # the verdicts allow at most 13 frames at one nl
def _condition_frame(holds: bool, level_flags: tuple, nl: str):
    """A condition report with this verdict and a level-set block with
    these (nonempty, regular, compact, apex present) flags, nonempty
    exactly when a witness is present, with a gap for each table, keyed by
    its position in (a_pairs, b_pairs, mixed_pairs), and for each entry of
    the witness and the apex functional, keyed by 3 + its position in
    (*witness, *apex): the order in which the dict form lists them."""
    nonempty, regular, compact, apex = level_flags
    level_set = wt.LevelSetConditions(
        nonempty, (0, 0, 0, 0) if nonempty else None, regular, compact, (0, 0) if apex else None
    )
    form = wt.ConditionReport(holds, {}, {}, {}, level_set).to_json()
    keys = itertools.count()  # the tables come before the level set
    return _template({k: _gap(next(keys)) if v == {} else _keyed(v, keys) for k, v in form.items()}, nl)


@functools.lru_cache(maxsize=256)
def _table_template(statuses, nl: str):
    """A condition table of the nine pairs, in order, whose memberships
    have these status values, with a gap for each coefficient of a member
    keyed by its position among the members' coefficients, in table order.
    Read off a probe report that holds the table, whose coefficients are
    their positions."""
    positions = itertools.count()
    table = {
        ij: ConeMembership(MembershipStatus(s), None if s == "outside" else (next(positions), next(positions)))
        for ij, s in zip(itertools.product((1, 2, 3), repeat=2), statuses)
    }
    level_set = wt.LevelSetConditions(False, None, False, False, None)
    form = wt.ConditionReport(False, table, {}, {}, level_set).to_json()["A_pairs"]
    for entry in form.values():
        if "coefficients" in entry:
            entry["coefficients"] = _keyed(entry["coefficients"], map(int, entry["coefficients"]))
    return _template(form, nl)


@functools.lru_cache(maxsize=8)
def _outside_table_text(nl: str) -> str:
    """The text at nl of a condition table with no member: both pair
    tables of data where the condition holds."""
    return _fill(_table_template(("outside",) * 9, nl), ())


def _table_text(table, nl: str) -> str:
    """A condition table (one of a report's three, the evidence (status, n1,
    n2, den) of the nine pairs in order) as encoded text, each member's
    coefficients n1/den and n2/den written as quotients. The shared table
    of nine non-members, ``weights._OUTSIDE_TABLE``, is one cached text."""
    if table is wt._OUTSIDE_TABLE:
        return _outside_table_text(nl)
    # status values, not members: a str caches its hash, an enum member
    # hashes through a Python-level __hash__
    statuses = tuple([status._value_ for status, _, _, _ in table])
    values = []
    for _, n1, n2, den in table:
        if den:
            values += (_quotient_text(n1, den), _quotient_text(n2, den))
    return _fill(_table_template(statuses, nl), values)


def _condition_text(evidence, nl: str) -> str:
    """``check_cone_condition(d).to_json()`` as encoded text, written from
    its integers, ``weights._condition_evidence(d)``: its three tables and
    the entries of its witness and apex functional in the gaps of one
    frame."""
    holds, tables, (witness, regular, compact, apex) = evidence
    flags = (witness is not None, regular, compact, apex is not None)
    inner = nl + "  "
    values = [_table_text(table, inner) for table in tables]
    if witness is not None:
        i, j, na, nb, den = witness
        values += (i, j, _quotient_text(na, den), _quotient_text(nb, den))
    if apex is not None:
        x, y, den = apex
        values += (_quotient_text(x, den), _quotient_text(y, den))
    return _fill(_condition_frame(holds, flags, nl), values)


def _interpolation_json(times, ok: bool) -> dict:
    """The interpolation block of a ``check`` report: the path's base
    coefficients, always (1, 1) (C = A_1 + B_1), its times and its verdict."""
    return {
        "base_coefficients": ["1", "1"],
        "times": [scalar_to_json(t) for t in times],
        "ok": ok,
    }


@functools.lru_cache(maxsize=8)
def _interpolation_text(steps: int, nl: str) -> str:
    """``_interpolation_json`` at the default times of ``steps`` as encoded
    text, built once per step count and nl. ``check`` writes it only when
    the cone condition holds, and by the README's path corollary the path
    then holds, so its verdict is true."""
    return _text(_interpolation_json(wt.default_interpolation_times(steps), True), nl)


# One pass over the audit pool meets 46 census entry shapes (every pattern
# of rank 2, each singleton with a witness).
@functools.lru_cache(maxsize=256)  # 3 ranks, and a singleton's witness or none: 156 at one nl
def _census_entry_template(k: int, rank: int, witness: bool, nl: str):
    """The k-th census entry at nl with a group of this rank and a witness
    point present or absent, with a gap for each number of its group,
    keyed by its position among them, and then for each entry of its
    witness point. Read off a probe report of the pattern."""
    d1, d12 = ((0, 0), (1, 0), (1, 1))[rank]
    probe = iso._census_report(k, d1, d12, (0, 0) if witness else None).to_json()
    keys = itertools.count()
    isotropy = {key: v if isinstance(v, str) else _keyed(v, keys) for key, v in probe["isotropy"].items()}
    return _template({**probe, "isotropy": isotropy, "witness_point": _keyed(probe["witness_point"], keys)}, nl)


# One pass over the audit pool (3870 censuses) meets 615 keys: 429 of the
# 40 patterns that are not singletons and 186 of the 6 singletons.
@functools.lru_cache(maxsize=1024)
def _census_entry(k: int, d1: int, d12: int, witness: bool, nl: str) -> tuple[str, ...]:
    """The text at nl of the k-th census entry whose rows have determinantal
    divisors d1 and d12, with a witness point present or absent, split
    where its witness point's two entries go (one piece without one). The
    template of its shape filled with the numbers of its group's dict form,
    in the order the template's gaps take them: no probe is rendered per
    divisor pair."""
    group = iso._group_from_divisors(d1, d12)
    template = _census_entry_template(k, group.rank, witness, nl)
    form = group.to_json().values()
    numbers = [x for v in form if not isinstance(v, str) for x in (v if isinstance(v, list) else (v,))]
    return tuple(_fill(template, [*numbers, "\0", "\0"]).split("\0"))


def _census_text(rows, nl: str) -> str:
    """``census_to_json(singular_stratum_census(d))`` as encoded text,
    written from its integers, the rows (k, d1, d12, witness) of
    ``isotropy._census_evidence(d)``, read once, each entry as its row
    comes: the census key (d1, d12) of the k-th pattern and, for a
    singleton with a witness (na, nb, den), its witness point, the
    quotients na/den and nb/den."""
    inner = nl + "  "
    entries = []
    for k, d1, d12, w in rows:
        if w is None:
            entries += _census_entry(k, d1, d12, False, inner)
        else:
            first, middle, last = _census_entry(k, d1, d12, True, inner)
            na, nb, den = w
            entries.append(first + _quotient_text(na, den) + middle + _quotient_text(nb, den) + last)
    return _list_text(entries, nl)


def _list_text(texts, nl: str) -> str:
    """A nonempty list at nl whose items, each on its own line, are these
    JSON texts, as ``json.dumps(indent=2)`` writes it there."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


@functools.lru_cache(maxsize=4)  # hodge_model's two tables, one per branch, at one nl
def _hodge_text(entries: tuple, nl: str) -> str:
    """The Hodge dict of a cohomology report as encoded text, for the
    table with these (bidegree, dimension) entries: written once per table
    and nl."""
    return _text(coh.HodgeTable(dict(entries)).to_json(), nl)


# A certificate's shape is its Jacobian rank, 0 to 4; the certify pool
# meets only rank 4.
@functools.lru_cache(maxsize=8)
def _certificate_format(jacobian_rank: int, nl: str) -> str:
    """The text at nl of a certificate of this Jacobian rank, as a
    %-format with one ``%s``, for its regularity margin: its template's
    format."""
    from . import quadric as quad

    return _template(quad.PointCertificate(jacobian_rank, _gap(0)).to_json(), nl)[0]


def _certificates_text(ranks: list, margins: list, nl: str) -> str:
    """``[PointCertificate(r, m).to_json() for r, m in zip(ranks,
    margins)]`` as encoded text: each certificate's format from
    :func:`_certificate_format`, filled in one pass with the text of every
    margin, which one ``json.dumps`` call writes."""
    if not ranks:
        return "[]"
    inner = nl + "  "
    formats = [_certificate_format(rank, inner) for rank in ranks]
    texts = json.dumps(margins)[1:-1].split(", ")
    return _list_text(formats, nl) % tuple(texts)


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
    keys, as ``json.dumps(_report(...), indent=2, sort_keys=True)`` writes
    it, with a gap for each value keyed by its position in (*config values,
    *result values, pass, wall time)."""
    keys = itertools.count()
    config = {key: _gap(next(keys)) for key in config_keys}
    results = {key: _gap(next(keys)) for key in result_keys}
    return _template(_report(command, config, results, _gap(next(keys)), _gap(next(keys))), "\n")


def _report_text(command: str, config: dict, results: dict, passed: bool, wall: float) -> str:
    """``json.dumps(_report(command, config, results, passed, wall),
    indent=2, sort_keys=True)`` and a final newline, from one cached
    envelope per command and key sets. Every config and result value
    starts on a line indented by four spaces, where ``_text`` writes it;
    pass and the wall time are leaves."""
    values = [_text(v, "\n    ") for v in (*config.values(), *results.values(), passed, wall)]
    return _fill(_envelope_template(command, tuple(config), tuple(results)), values) + "\n"


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
    evidence = wt._condition_evidence(d)
    holds = evidence[0]
    results = {
        "weights": None if ws is None else _rendered(_weights_text, ws),
        "derived": _rendered(_derived_text, d),
        "condition": _rendered(_condition_text, evidence),
        "interpolation": _rendered(_interpolation_text, args.interp_steps) if holds else None,
    }
    return results, holds


def cmd_isotropy(args) -> tuple[dict, bool]:
    ws, d = _problem(args.config)
    if not d.is_integer:
        raise InputError("isotropy analysis requires integer cone data")
    if not wt.cone_condition_holds(d):
        return {"error": "cone condition fails; isotropy analysis requires it"}, False
    # the lattice-pair test, once: a weight system's own verdict is the same
    # test on the same data (ws.derived is d), so the two agree
    verdict = iso.FreenessVerdict(wt._failing_pair(d._nine_crosses))
    results = {
        "weights": None if ws is None else _rendered(_weights_text, ws),
        "derived": _rendered(_derived_text, d),
        "freeness": _rendered(_freeness_text, verdict),
        "classification": iso.Classification.of(verdict.free).value,
        "census": _rendered(_census_text, iso._census_evidence(d)),
    }
    return results, True


def cmd_verify(args) -> tuple[dict, bool]:
    if args.samples < 1:
        raise InputError("--samples must be >= 1")
    if args.samples > MAX_SAMPLES:
        raise InputError(f"--samples must be <= {MAX_SAMPLES}")
    if args.seed < 0:
        raise InputError("--seed must be >= 0")
    ws, d = _problem(args.config)
    from . import quadric as quad  # the float layer: verify alone loads numpy

    try:
        quad.check_float_range(d)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    condition_ok = wt.cone_condition_holds(d)
    # certify even without the cone condition: points exist for all cone
    # data (the README's centroid proposition), so failures surface as
    # regular=false certificates; sampling raises only for a row past its
    # proven rounding bound
    try:
        sample = quad.certification_sample(d, args.samples, args.seed)
    except ValueError as exc:
        return {"cone_condition": condition_ok, "error": f"sampling failed: {exc}"}, False
    # certify_points' columns: a certificate passes when its Jacobian rank is 4
    ranks, margins = quad._certificate_columns(d, sample)
    all_passed = condition_ok and ranks.count(4) == len(ranks)
    results = {
        "weights": None if ws is None else _rendered(_weights_text, ws),
        "cone_condition": condition_ok,
        "samples": args.samples,
        "seed": args.seed,
        "certificates": _rendered(_certificates_text, ranks, margins),
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
        if args.branch == "degenerate":
            raise InputError("--beta and --branch degenerate exclude each other: give one of them")
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
    derham = coh._derham_betti()
    hodge = coh.hodge_model(beta)
    beta_str = [repr(b) if isinstance(b, coh.Eisenstein) else scalar_to_json(b) for b in beta]
    passed = tuple(basic_betti) == coh.BASIC_BETTI and derham == coh.SU3_DERHAM_BETTI
    results = {
        "basic_betti": _rendered(_list_text, [*map(str, basic_betti)]),
        "derham_betti": _rendered(_list_text, [*map(str, derham)]),
        "derham_matches_su3": derham == coh.SU3_DERHAM_BETTI,
        "hodge": _rendered(_hodge_text, tuple(hodge.entries.items())),
        "beta": _rendered(_list_text, [*map(encode_basestring_ascii, beta_str)]),
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
    makes (int or str) and checked against the choices. Anything
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
    args = argparse.Namespace()
    args.__dict__.update(attrs)
    return args


# The attributes of a namespace that a report's config does not echo.
_NOT_ECHOED = frozenset(("command", "out", "timing"))


def _config_echo(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in _NOT_ECHOED}


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
    try:
        text = _report_text(args.command, config, results, passed, wall)
    except ValueError as exc:  # a number longer than str() writes (4300 digits)
        code, error = EXIT_USAGE, {"error": f"cannot render the report: {exc}"}
        text = _report_text(args.command, config, error, False, wall)
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
