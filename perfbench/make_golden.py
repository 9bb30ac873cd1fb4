"""Regenerate the benchmark's input pools and expected outputs.

    python3 perfbench/make_golden.py

Run from the repository root. Writes ``perfbench/golden/{sweep,audit,
certify}.json``. Every pool entry is executed once and must give the exit
code its category promises (admissible systems pass, failing candidates
fail with a reported verdict, every certificate passes); the run aborts
otherwise, so no pool can hold an op that errors. Regenerate only when an
output change is intended: the golden files are what the benchmark's
correctness gate compares against.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import su3kahler as sk  # noqa: E402
import workloads as wl  # noqa: E402

ORBIFOLD_RAW = '{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'
ROUND_RAW = '{"A": [[1,0],[1,0],[1,0]], "B": [[0,1],[0,1],[0,1]]}'
README_CHECK = '{"wL": [[-1,1],[-1,1],[2,-2]], "wR": [[-4,1],[5,-5],[-1,4]]}'
COHOMOLOGY_ARGS = [[], ["--branch", "degenerate"], ["--beta", "1/2,-3/7"]]

BOUND3_STRIDE = 64      # every 64th admissible bound-3 system (audit)
FAILING_STRIDE = 1231   # every 1231st bound-3 candidate that fails
CERTIFY_B2_STRIDE = 4
CERTIFY_SPECIAL_SEEDS = 12


def flat(ws: sk.WeightSystem) -> list[int]:
    return [x for v in (*ws.wl, *ws.wr) for x in v]


def candidates(bound: int):
    """Every bound-`bound` candidate in enumeration order, admissible or not."""
    rng = range(-bound, bound + 1)
    for x1, y1, x2, y2 in itertools.product(rng, rng, rng, rng):
        x3, y3 = -x1 - x2, -y1 - y2
        if abs(x3) > bound or abs(y3) > bound:
            continue
        for u1, v1, u2, v2 in itertools.product(rng, rng, rng, rng):
            u3, v3 = -u1 - u2, -v1 - v2
            if abs(u3) <= bound and abs(v3) <= bound:
                yield sk.WeightSystem(((x1, y1), (x2, y2), (x3, y3)), ((u1, v1), (u2, v2), (u3, v3)))


def expect(argv, code_wanted: int) -> str:
    code, text = wl.run_cli(argv)
    if code != code_wanted:
        raise SystemExit(f"pool op exited {code}, expected {code_wanted}: {argv}")
    return wl.digest(code, text)


def make_sweep() -> tuple[dict, list[list[int]]]:
    expected, stream = [], []
    for k in range(wl.SWEEP_PARTS):
        count, text = wl.run_sweep_slice(k)
        expected.append(f"{count}:{wl.digest(0, text)}")
        stream.extend(flat(sk.WeightSystem.from_json(json.loads(line))) for line in text.splitlines())
    golden = {"bound": wl.SWEEP_BOUND, "parts": wl.SWEEP_PARTS, "expected": expected}
    wl.check_anchors("sweep", golden)
    return golden, stream


def make_audit(bound2, bound3_stream) -> dict:
    failing = [[0] * 12]  # all weights zero: every generator and C vanish
    for n, ws in enumerate(candidates(wl.SWEEP_BOUND)):
        if n % FAILING_STRIDE == 0 and not sk.cone_condition_holds(sk.derive(ws)):
            failing.append(flat(ws))
    pools = {
        "bound2": (bound2, 0),
        "bound3": (bound3_stream[::BOUND3_STRIDE], 0),
        "failing": (failing, 1),
        "raw": ([README_CHECK, ORBIFOLD_RAW, ROUND_RAW], 0),
    }
    categories = {}
    for cat, (items, code) in pools.items():
        configs = [i if isinstance(i, str) else wl.ws_config(i) for i in items]
        categories[cat] = {
            "items": items,
            "expected": {
                cmd: [expect((cmd, "--config", c), code) for c in configs]
                for cmd in ("check", "isotropy")
            },
        }
    categories["cohomology"] = {
        "items": COHOMOLOGY_ARGS,
        "expected": {"cohomology": [expect(("cohomology", *a), 0) for a in COHOMOLOGY_ARGS]},
    }
    golden = {"categories": categories}
    wl.check_anchors("audit", golden)
    return golden


def make_certify(bound2, bound3_stream) -> dict:
    sizes = wl.CERTIFY_SAMPLES
    special = [(s, seed) for seed in range(CERTIFY_SPECIAL_SEEDS) for s in sizes]
    systems = {
        "bound2": bound2[::CERTIFY_B2_STRIDE],
        "bound3": bound3_stream[BOUND3_STRIDE // 2 :: BOUND3_STRIDE],
    }
    categories = {
        "orbifold": [[ORBIFOLD_RAW, s, seed] for s, seed in special],
        "round": [[ROUND_RAW, s, seed] for s, seed in special],
    }
    for cat, items in systems.items():
        categories[cat] = [[wl.ws_config(f), sizes[j % len(sizes)], j] for j, f in enumerate(items)]
    for cat, triples in categories.items():
        for config, samples, seed in triples:
            argv = ("verify", "--config", config, "--samples", str(samples), "--seed", str(seed))
            ok, why = wl.certificate_ok(*wl.run_cli(argv), samples)
            if not ok:
                raise SystemExit(f"certify pool op fails ({why}): {argv}")
    return {"categories": categories}


def main() -> int:
    out = wl.GOLDEN
    out.mkdir(exist_ok=True)
    sweep, stream = make_sweep()
    bound2 = [flat(ws) for ws in sk.enumerate_admissible_systems(2)]
    files = {
        "sweep": sweep,
        "audit": make_audit(bound2, stream),
        "certify": make_certify(bound2, stream),
    }
    for name, golden in files.items():
        (out / f"{name}.json").write_text(json.dumps(golden, separators=(",", ":")) + "\n")
        print(f"wrote {name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
