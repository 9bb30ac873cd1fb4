"""Input pools, seeded op lists, op execution and correctness gates.

Every op runs in-process: ``sweep`` through the public enumeration API,
``audit`` and ``certify`` through ``su3kahler.cli.main(argv)`` with stdout
captured. Op lists are a pure function of (workload, seed, op count); the
op count comes from ``--seconds`` through a fixed nominal rate, never from
the clock, so every count repeats exactly between runs with one seed.

Module attributes of ``su3kahler`` are looked up at call time, so the
tracer's wrappers (installed on those attributes) see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from su3kahler import cli
from su3kahler import isotropy
from su3kahler import weights

GOLDEN = Path(__file__).resolve().parent / "golden"

# The sweep pool is the bound-3 search split into one slice per outer wL
# block: 1369 slices of 1369 candidates each (37 admissible pairs per
# coordinate on each side).
SWEEP_BOUND = 3
SWEEP_PARTS = 1369
BOUND2_ADMISSIBLE = 2856
BOUND3_ADMISSIBLE = 64656

# Ops per second of --seconds, sized so that a list takes about --seconds
# on a 2-core x86-64 host with numpy 2.4 / Python 3.11 at the commit that
# introduced the benchmark. The op count depends only on --seconds.
OPS_PER_SECOND = {"sweep": 27.0, "audit": 220.0, "certify": 44.0}
WARMUP_OPS = {"sweep": 8, "audit": 60, "certify": 12}

# Fixed shares of each op list, so the mix never depends on the seed.
AUDIT_SHARES = (
    ("bound2", 0.48),
    ("bound3", 0.23),
    ("failing", 0.25),
    ("raw", 0.03),
    ("cohomology", 0.01),
)
CERTIFY_SHARES = (("bound2", 0.45), ("bound3", 0.45), ("orbifold", 0.05), ("round", 0.05))
CERTIFY_SAMPLES = (5, 20, 50)

WORKLOADS = ("sweep", "audit", "certify")


@dataclass(frozen=True)
class Op:
    """One benchmark operation: its key in the golden pool and its argv."""

    category: str
    index: int
    command: str  # "slice" for sweep ops, else the CLI subcommand
    argv: tuple[str, ...] = ()
    samples: int = 0


@dataclass
class Outcome:
    ok: bool
    work: int           # candidates (sweep), 1 (audit), points (certify)
    stdout_bytes: int
    detail: str = ""


def digest(code: int, text: str) -> str:
    """Exit code, byte length and 128-bit BLAKE2b digest of exact output."""
    data = text.encode()
    return f"{code}:{len(data)}:{hashlib.blake2b(data, digest_size=16).hexdigest()}"


def ws_config(flat) -> str:
    """CLI config string of a weight system stored as 12 flat integers."""
    wl = [flat[0:2], flat[2:4], flat[4:6]]
    wr = [flat[6:8], flat[8:10], flat[10:12]]
    return json.dumps({"wL": wl, "wR": wr})


def slice_candidates(bound: int) -> int:
    """Candidates scanned per outer block: wR choices with |u3|, |v3| <= bound."""
    rng = range(-bound, bound + 1)
    pairs = sum(1 for a in rng for b in rng if abs(a + b) <= bound)
    return pairs * pairs


def load_golden(name: str) -> dict:
    path = GOLDEN / f"{name}.json"
    golden = json.loads(path.read_text())
    check_anchors(name, golden)
    return golden


def check_anchors(name: str, golden: dict) -> None:
    """The published counts the golden files must reproduce."""
    if name == "sweep":
        counts = [int(e.split(":", 1)[0]) for e in golden["expected"]]
        if len(counts) != SWEEP_PARTS or sum(counts) != BOUND3_ADMISSIBLE:
            raise ValueError(f"sweep golden: {len(counts)} slices, {sum(counts)} systems")
    elif name == "audit":
        n = len(golden["categories"]["bound2"]["items"])
        if n != BOUND2_ADMISSIBLE:
            raise ValueError(f"audit golden: {n} bound-2 systems, expected {BOUND2_ADMISSIBLE}")


def _quota(n: int, shares) -> list[tuple[str, int]]:
    """Split n ops over categories by fixed shares (largest remainder)."""
    raw = [(cat, n * share) for cat, share in shares]
    counts = {cat: int(x) for cat, x in raw}
    left = n - sum(counts.values())
    for cat, x in sorted(raw, key=lambda cx: cx[1] - int(cx[1]), reverse=True)[:left]:
        counts[cat] += 1
    return [(cat, counts[cat]) for cat, _ in shares]


def _draw(pool_size: int, k: int, rng: random.Random) -> list[int]:
    """k indices from range(pool_size), without repeats until it runs out."""
    out: list[int] = []
    while len(out) < k:
        perm = list(range(pool_size))
        rng.shuffle(perm)
        out.extend(perm[: k - len(out)])
    return out


def _stratified(order: list[int], k: int, rng: random.Random) -> list[int]:
    """k items of `order` (sorted by cost), one from each of k equal strata
    per pass, so every seed draws the same spread of cheap and costly items."""
    out = order * (k // len(order))
    r = k - len(out)
    cuts = [len(order) * i // r for i in range(r + 1)] if r else []
    out += [order[rng.randrange(a, b)] for a, b in zip(cuts, cuts[1:])]
    return out


def op_count(name: str, seconds: float) -> int:
    return max(1, round(seconds * OPS_PER_SECOND[name]))


def make_ops(name: str, golden: dict, seed: int, n: int, stream: str = "ops") -> list[Op]:
    """The seeded op list: the seed picks pool items and their order only."""
    rng = random.Random(f"{name}:{seed}:{stream}")
    ops: list[Op] = []
    if name == "sweep":
        yields = [int(e.split(":", 1)[0]) for e in golden["expected"]]
        by_yield = sorted(range(SWEEP_PARTS), key=lambda k: (yields[k], k))
        ops = [Op("slice", k, "slice") for k in _stratified(by_yield, n, rng)]
    elif name == "audit":
        cats = golden["categories"]
        for cat, count in _quota(n, AUDIT_SHARES):
            items = cats[cat]["items"]
            commands = sorted(cats[cat]["expected"])
            for slot, idx in enumerate(_draw(len(items), count, rng)):
                command = commands[slot % len(commands)]
                item = items[idx]
                if command == "cohomology":
                    argv = ("cohomology", *item)
                else:
                    config = item if isinstance(item, str) else ws_config(item)
                    argv = (command, "--config", config)
                ops.append(Op(cat, idx, command, argv))
    elif name == "certify":
        cats = golden["categories"]
        for cat, count in _quota(n, CERTIFY_SHARES):
            by_size = {s: [i for i, t in enumerate(cats[cat]) if t[1] == s] for s in CERTIFY_SAMPLES}
            for s_slot, size in enumerate(CERTIFY_SAMPLES):
                share = count // len(CERTIFY_SAMPLES) + (s_slot < count % len(CERTIFY_SAMPLES))
                for pick in _draw(len(by_size[size]), share, rng):
                    idx = by_size[size][pick]
                    config, samples, vseed = cats[cat][idx]
                    argv = ("verify", "--config", config, "--samples", str(samples),
                            "--seed", str(vseed))
                    ops.append(Op(cat, idx, "verify", argv, samples))
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


def run_sweep_slice(k: int) -> tuple[int, str]:
    """One slice consumed as `su3kahler enumerate` consumes the stream."""
    out = io.StringIO()
    count = 0
    for ws in weights.enumerate_admissible_systems(SWEEP_BOUND, part=(k, SWEEP_PARTS)):
        classification = isotropy.classify_quotient(ws)
        line = dict(ws.to_json())
        line["free"] = classification is isotropy.Classification.FREE_FLAG_CASE
        line["classification"] = classification.value
        out.write(json.dumps(line, sort_keys=True) + "\n")
        count += 1
    return count, out.getvalue()


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def execute(op: Op):
    """Run one op; the raw result is gated by :func:`gate` outside timing."""
    if op.command == "slice":
        return run_sweep_slice(op.index)
    return run_cli(op.argv)


def gate(name: str, golden: dict, op: Op, result) -> Outcome:
    """Correctness of one op's output.

    sweep and audit compare the exact output against the golden digest, so
    a correctly reported negative verdict (exit 1 on a failing candidate)
    passes. certify checks structure, not digits: exit 0, ``all_passed``,
    ranks 4 and 10 and a passing verdict in every certificate, and the
    requested sample count.
    """
    if name == "sweep":
        count, text = result
        ok = f"{count}:{digest(0, text)}" == golden["expected"][op.index]
        return Outcome(ok, slice_candidates(SWEEP_BOUND), 0, "" if ok else f"slice {op.index}")
    code, text = result
    nbytes = len(text.encode())
    if name == "audit":
        expected = golden["categories"][op.category]["expected"][op.command][op.index]
        ok = digest(code, text) == expected
        return Outcome(ok, 1, nbytes, "" if ok else " ".join(op.argv))
    ok, why = certificate_ok(code, text, op.samples)
    return Outcome(ok, op.samples, nbytes, "" if ok else f"{why}: {' '.join(op.argv)}")


def certificate_ok(code: int, text: str, samples: int) -> tuple[bool, str]:
    if code != 0:
        return False, f"exit {code}"
    try:
        report = json.loads(text)
        results = report["results"]
        certs = results["certificates"]
    except (ValueError, KeyError, TypeError):
        return False, "malformed report"
    if report.get("command") != "verify" or report.get("pass") is not True:
        return False, "report not passed"
    if results.get("all_passed") is not True or results.get("samples") != samples:
        return False, "all_passed or samples"
    if len(certs) != samples:
        return False, f"{len(certs)} certificates"
    for cert in certs:
        if cert.get("jacobian_rank") != 4 or cert.get("combined_rank") != 10:
            return False, "certificate ranks"
        if cert.get("pass") is not True:
            return False, "certificate failed"
    return True, ""
