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
from integers read off the cone data's sign table, each quotient n/d as
text while the report renders, into templates keyed by the shape of the
text; no ``Fraction`` or report object is built per op. Where the cone
condition holds, the nine-sign corollary fixes that shape for the whole
report, so it is one template, filled by one ``%`` (``_check_template``,
``_isotropy_template``, from the nine crosses and
``isotropy._census_numbers``); ``check`` on other data writes its parts
from ``weights._condition_evidence``.

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


def _gap(key: int, quoted: bool = False, integer: bool = False) -> str:
    """The gap of a template for the value of this key, inside a string's
    quotes if quoted, else bare, for an int or for a JSON text: a control
    character and the key, which json.dumps writes as \\u0000key inside
    quotes, "\\u0002key" for an int's bare gap or "\\u0001key" for another
    bare gap, since it escapes every control character."""
    return ("\0" if quoted else "\2" if integer else "\1") + str(key)


# A gap in json.dumps's text: a quoted one, or a bare one with its quotes
# and the kind of its value, 1 (a JSON text) or 2 (an int).
_GAP = re.compile(r'\\u0000(\d+)|"\\u000([12])(\d+)"')


def _keyed(o, keys):
    """o with each leaf replaced by a gap keyed by the next of keys (in the
    order o lists its leaves), quoted for a str and an int's for an int;
    None (an absent value) and bools (verdicts) stay."""
    if isinstance(o, (list, tuple)):
        return [_keyed(x, keys) for x in o]
    if isinstance(o, dict):
        return {k: _keyed(v, keys) for k, v in o.items()}
    if o is None or isinstance(o, bool):
        return o
    return _gap(next(keys), isinstance(o, str), isinstance(o, int))


def _split(form, nl: str):
    """json.dumps's text of form at nl split at its gaps: the pieces
    between them, each ``%`` doubled, and each gap's (key, whether its
    value is an int), in text order."""
    split = _GAP.split(json.dumps(form, indent=2, sort_keys=True).replace("\n", nl))
    pieces = [piece.replace("%", "%%") for piece in split[::4]]
    return pieces, [(int(q or b), kind == "2") for q, kind, b in zip(split[1::4], split[2::4], split[3::4])]


def _getter(keys: list):
    """A getter of these keys' values, in order, which returns a tuple (one
    key's value wrapped, none for no keys)."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    if keys:
        key = keys[0]
        return lambda values: (values[key],)
    return lambda values: ()


def _template(form, nl: str):
    """The text of form at nl, compiled for :func:`_fill`: a %-format of
    its pieces between the gaps, with ``%s`` at each gap, and the getter of
    the gaps' keys, in text order."""
    pieces, gaps = _split(form, nl)
    return "%s".join(pieces), _getter([key for key, _ in gaps])


def _ascii_template(form):
    """The text of form at the top level compiled for one bytes ``%``, as
    a report compiled whole is filled (:func:`_report_text`): a bytes
    %-format of its pieces between the gaps, with ``%d`` at an int's gap
    and ``%s`` at any other, whose value is its ASCII text as bytes, and
    the getter of the gaps' keys, in text order. json.dumps escapes every
    character past ASCII, so the text encodes byte for byte; bytes ``%``
    finds each ``%`` with memchr where str ``%`` reads its format character
    by character, which halves the fill of a 16.5 kB ``isotropy`` report."""
    pieces, gaps = _split(form, "\n")
    specs = ["%d" if integer else "%s" for _, integer in gaps]
    fmt = "".join(itertools.chain(*zip(pieces, specs), pieces[-1:])).encode()
    return fmt, _getter([key for key, _ in gaps])


def _fill(template, values) -> str:
    """A template's text with str(values[k]) in each gap of key k, by one
    ``%``. A value is a JSON text, an int (not a bool), whose str() is
    json.dumps's text of it, or, in a string gap, an int or a Fraction,
    whose str() is ``scalar_to_json`` of it: digits, "-" and "/", which
    need no escape."""
    fmt, getter = template
    return fmt % getter(values)


# The dict form of each block written from a leaf template, with zeros for
# its entries, by kind.
_ZERO = ((0, 0),) * 3
_LEAF_PROBES = {
    "weights": wt.WeightSystem(_ZERO, _ZERO),
    "derived": wt.DerivedConeData(_ZERO, _ZERO, (0, 0)),
}


@functools.lru_cache(maxsize=8)  # the two kinds, at each nl they are written at
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


# The template caches are sized from their distinct keys over one pass of
# the audit pool (10673 ops, 5335 of them check, 1465 of those on data that
# fail the condition, the only ones written part by part): 8 condition
# frames, 92 table shapes.
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


def _table_text(table, nl: str) -> str:
    """A condition table (one of a report's three, the evidence (status, n1,
    n2, den) of the nine pairs in order) as encoded text, each member's
    coefficients n1/den and n2/den written as quotients."""
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


def _envelope(command: str, config_keys, results, keys) -> dict:
    """``_report`` of a ``command`` report with these results, with a gap
    keyed by the next of keys for each value of a config echo with these
    keys, then for pass and then for the wall time."""
    config = {key: _gap(next(keys)) for key in config_keys}
    return _report(command, config, results, _gap(next(keys)), _gap(next(keys)))


# One pass over the audit pool meets 4 envelopes (check; isotropy with a
# census or an error; cohomology); six commands with at most three result
# key sets each fit in 32.
@functools.lru_cache(maxsize=32)
def _envelope_template(command: str, config_keys: tuple, result_keys: tuple):
    """The envelope of a ``command`` report with these config and result
    keys, as ``json.dumps(_report(...), indent=2, sort_keys=True)`` writes
    it, with a gap for each value keyed by its position in (*result values,
    *config values, pass, wall time)."""
    keys = itertools.count()
    results = {key: _gap(next(keys)) for key in result_keys}
    return _template(_envelope(command, config_keys, results, keys), "\n")


class _Whole(NamedTuple):
    """The results of a report compiled whole, as a command returns them:
    the template of the whole report, envelope included, from
    :func:`_ascii_template`, and a function that lists the values of its
    gaps up to the config echo. The report calls it as it renders
    (:func:`_report_text`), so a number past ``str()``'s digit limit ends
    in the ``cannot render the report`` envelope, as it does on the part
    path."""

    template: tuple
    values: Callable[[], list]


def _echo_keys(command: str) -> tuple:
    """The keys of a ``command`` report's config echo (``_config_echo``):
    the attributes of its options, sorted."""
    return tuple(sorted(o.dest for o in _TABLE[command].options))


def _witness_texts(d: wt.DerivedConeData) -> list[bytes]:
    """The ASCII texts of the coefficients of C in cone(A_i, B_j) for the six
    mixed pairs i != j, in order of (i, j), for data where the cone
    condition holds: n1/den and n2/den of each pair's evidence in
    ``d._mixed_evidence``, read off the nine crosses. They are ``check``'s
    mixed table and ``isotropy``'s singleton witness points, and the pair
    (1, 2) is also the level-set witness."""
    mixed = d._mixed_evidence
    texts = []
    for k in (1, 2, 3, 5, 6, 7):  # the positions 3*i + j, 0-based, with i != j
        _, n1, n2, den = mixed[k]
        texts += (_quotient_text(n1, den).encode(), _quotient_text(n2, den).encode())
    return texts


def _admissible_condition(keys) -> dict:
    """``check_cone_condition(d).to_json()`` for data where the condition
    holds, with a gap keyed by the next of keys for each coefficient of
    the mixed pairs i != j, in order, and then for each entry of the apex
    functional; the level-set witness, the pair (1, 2), shares that pair's
    gaps. By the nine-sign corollary C lies in none of the A-pair and
    B-pair cones, is interior to every mixed one, on the diagonal with
    coefficients (1, 1), and every level-set condition holds."""
    pairs = list(itertools.product((1, 2, 3), repeat=2))
    outside = dict.fromkeys(pairs, ConeMembership(MembershipStatus.OUTSIDE))
    mixed = dict.fromkeys(pairs, ConeMembership(MembershipStatus.INTERIOR, (1, 1)))  # C = A_i + B_i
    level_set = wt.LevelSetConditions(True, (1, 2, 0, 0), True, True, (0, 0))
    form = wt.ConditionReport(True, outside, outside, mixed, level_set).to_json()
    for i, j in pairs:
        if i != j:
            entry = form["mixed_pairs"][f"{i},{j}"]
            entry["coefficients"] = _keyed(entry["coefficients"], keys)
    level_set = form["level_set"]
    level_set["nonempty_witness"].update(zip("ab", form["mixed_pairs"]["1,2"]["coefficients"]))
    level_set["apex_functional"] = _keyed(level_set["apex_functional"], keys)
    return form


# A compiled report is cached per shape: one pass over the audit pool meets
# 2 check shapes (weights or cone data, at the default --interp-steps) and
# all 4 isotropy shapes.
@functools.lru_cache(maxsize=8)
def _check_template(weights: bool, steps: int):
    """The text of a ``check`` report of data where the cone condition
    holds, at this ``--interp-steps``, of a weight system or of cone data,
    compiled whole. Its gaps are keyed by position in the values of
    :func:`_check_values`, then the config echo, pass and the wall time;
    the interpolation block has no gap, since by the README's path
    corollary it is a constant of the step count."""
    keys = itertools.count()
    results = {
        "derived": _gap(next(keys)),
        "condition": _admissible_condition(keys),
        "interpolation": _interpolation_json(wt.default_interpolation_times(steps), True),
        "weights": _keyed(_LEAF_PROBES["weights"].to_json(), keys) if weights else None,
    }
    return _ascii_template(_envelope("check", _echo_keys("check"), results, keys))


def _check_values(ws: wt.WeightSystem | None, d: wt.DerivedConeData) -> list:
    """The values of a compiled ``check`` report's gaps up to the config
    echo: the text of d, the 12 mixed coefficients, the apex functional's
    two entries and the 12 weights of ws, if any."""
    x, y, den = d._apex  # present where the condition holds (the apex proposition)
    values = [_derived_text(d, "\n    ").encode(), *_witness_texts(d)]
    values += (_quotient_text(x, den).encode(), _quotient_text(y, den).encode())
    if ws is not None:
        values += itertools.chain(*ws.wl, *ws.wr)
    return values


def _census(keys) -> list:
    """``census_to_json(singular_stratum_census(d))`` for integer data where
    the cone condition holds, with a gap keyed by the next of keys for the
    order and the two factors of each pattern's group, pattern by pattern,
    and then for each entry of the singletons' witness points, in order:
    by the README's census-shape proposition every group is finite of rank
    2 and every singleton has its witness."""
    census = []
    for k, (_, _, _, singleton, _) in enumerate(iso._CENSUS_PATTERNS):
        entry = iso._census_report(k, 1, 1, (0, 0) if singleton else None).to_json()
        group = entry["isotropy"]
        group.update(_keyed({"order": group["order"], "factors": group["factors"]}, keys))
        census.append(entry)
    for entry in census:
        if entry["witness_point"] is not None:
            entry["witness_point"] = _keyed(entry["witness_point"], keys)
    return census


@functools.lru_cache(maxsize=4)  # weights or cone data, free or orbifold
def _isotropy_template(weights: bool, free: bool):
    """The text of an ``isotropy`` report of data where the cone condition
    holds, of a weight system or of cone data, with a free or an orbifold
    action, compiled whole. Its gaps are keyed by position in the values
    of :func:`_isotropy_values`, then the config echo, pass and the wall
    time."""
    keys = itertools.count()
    results = {
        "derived": _gap(next(keys)),
        "freeness": _keyed(iso.FreenessVerdict(None if free else (0, 0, 0)).to_json(), keys),
        "census": _census(keys),
        "weights": _keyed(_LEAF_PROBES["weights"].to_json(), keys) if weights else None,
        "classification": iso.Classification.of(free).value,
    }
    return _ascii_template(_envelope("isotropy", _echo_keys("isotropy"), results, keys))


def _isotropy_values(ws: wt.WeightSystem | None, d: wt.DerivedConeData, failing) -> list:
    """The values of a compiled ``isotropy`` report's gaps up to the config
    echo: the text of d, the failing pair, if any, the order d12 and the
    factors d1 and d12/d1 of each census group, the 12 singleton witness
    coefficients and the 12 weights of ws, if any."""
    values = [_derived_text(d, "\n    ").encode()]
    if failing is not None:
        values += failing
    values += iso._census_numbers(d)
    values += _witness_texts(d)
    if ws is not None:
        values += itertools.chain(*ws.wl, *ws.wr)
    return values


def _report_text(command: str, config: dict, results, passed: bool, wall: float) -> str:
    """``json.dumps(_report(command, config, results, passed, wall),
    indent=2, sort_keys=True)`` and a final newline. Results compiled whole
    (:class:`_Whole`) fill their own template by one bytes ``%``, and a
    results dict fills one cached envelope per command and key sets, each
    of its values written by ``_text`` on a line indented by four spaces,
    as is every config value; pass and the wall time are leaves."""
    if type(results) is _Whole:
        fmt, getter = results.template
        values = results.values()
        values += [_text(v, "\n    ").encode() for v in (*config.values(), passed, wall)]
        text = (fmt % getter(values)).decode()
    else:
        values = [_text(v, "\n    ") for v in (*results.values(), *config.values(), passed, wall)]
        text = _fill(_envelope_template(command, tuple(config), tuple(results)), values)
    return text + "\n"


def _monomial(v) -> str:
    parts = []
    for name, e in zip(("t1", "t2"), v):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append(f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def cmd_check(args) -> tuple[dict | _Whole, bool]:
    if args.interp_steps < 1:
        raise InputError("--interp-steps must be >= 1")
    if args.interp_steps > MAX_INTERP_STEPS:
        raise InputError(f"--interp-steps must be <= {MAX_INTERP_STEPS}")
    ws, d = _problem(args.config)
    if d._holds:  # the verdict cone_condition_holds reads; the nine-sign corollary fixes the report's shape
        template = _check_template(ws is not None, args.interp_steps)
        return _Whole(template, functools.partial(_check_values, ws, d)), True
    results = {
        "weights": None if ws is None else _rendered(_weights_text, ws),
        "derived": _rendered(_derived_text, d),
        "condition": _rendered(_condition_text, wt._condition_evidence(d)),
        "interpolation": None,
    }
    return results, False


def cmd_isotropy(args) -> tuple[dict | _Whole, bool]:
    ws, d = _problem(args.config)
    if not d.is_integer:
        raise InputError("isotropy analysis requires integer cone data")
    if not wt.cone_condition_holds(d):
        return {"error": "cone condition fails; isotropy analysis requires it"}, False
    # the lattice-pair test, once: a weight system's own verdict is the same
    # test on the same data (ws.derived is d), so the two agree
    failing = wt._failing_pair(d._nine_crosses)
    template = _isotropy_template(ws is not None, failing is None)
    return _Whole(template, functools.partial(_isotropy_values, ws, d, failing)), True


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


@functools.lru_cache(maxsize=2)
def _line_template(free: bool) -> tuple[str, ...]:
    """A stream line of a system with this verdict, split where its wL and
    wR texts go."""
    zero = ((0, 0),) * 3
    line = dict.fromkeys(wt.WeightSystem(zero, zero).to_json(), "\0")
    line.update(free=free, classification=iso.Classification.of(free).value)
    return tuple(json.dumps(line, sort_keys=True).split(json.dumps("\0")))


def cmd_enumerate(args) -> tuple[dict, bool]:
    """One line per admissible system, ``json.dumps(line, sort_keys=True)``
    for line its ``to_json()`` with its ``free`` verdict and classification
    added, written from the search's blocks: the head for the verdict, the
    texts of the wL and wR grid rows and the closing brace, one ``write``
    per wL block."""
    try:
        blocks = wt._admissible_blocks(args.bound)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    texts = [json.dumps([list(v) for v in row]) for row in wt._weight_grid(args.bound)[0]]
    templates = [_line_template(free) for free in (False, True)]
    end = templates[0][-1] + "\n"
    count = free_count = 0
    write = sys.stdout.write
    for row, keep, free in blocks:
        starts = [head + texts[row] + middle for head, middle, _ in templates]  # by verdict
        write(end.join([starts[f] + texts[i] for i, f in zip(keep, free)]) + end)
        count += len(keep)
        free_count += sum(free)
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
