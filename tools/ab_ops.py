"""Interleaved A/B timing of two su3kahler trees on the benchmark's CLI ops.

    python tools/ab_ops.py --a git:HEAD~1 --b src --workload audit --seed 7 --ops 2000 --passes 5

Each tree is a directory holding ``su3kahler/`` (a ``src`` directory, or
a repository root with ``src/su3kahler``) or ``git:REV``, whose
``src/su3kahler`` is read out of this repository by ``git archive``. Both
are copied under distinct package names (``su3kahler_a``, ``su3kahler_b``)
into a temporary directory and imported into this one process, so the two
run on the same interpreter, heap and CPU state.

The op list is the benchmark's own: ``perfbench.workloads.make_ops`` of
the ``audit`` or ``certify`` workload for the seed, with its warm-up list
run first on both trees, then ``gc.freeze()``. Every pass runs each op on
both trees back to back, alternating which goes first op by op, so a
drift of the host moves both sides alike. The first pass compares each
op's exit code and stdout between the trees, counts the ops that differ
and prints the argv of the first one to stderr. It also runs the
benchmark's own gate, ``perfbench.workloads.gate``, on each op's output
from each tree, counts the failures per tree and prints the first
failing op of each tree to stderr, so a deliberate output change is
checked against what the benchmark checks. Timing goes on, and the tool
exits 1 after the last pass when any op differed or failed its gate.
Each pass prints, for each tree, the mean us/op and the median op's
latency, and the ratios a/b of both (above 1 when b is faster); the last
line is one JSON object with every pass, the count of differing ops and
the gate failures of each tree.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# The package names the two trees are imported under.
PACKAGES = ("su3kahler_a", "su3kahler_b")


def _package_dir(tree: str, scratch: Path, name: str) -> Path:
    """The su3kahler package directory of a tree, extracted from git for
    ``git:REV``."""
    if tree.startswith("git:"):
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", tree[4:], "src/su3kahler"],
            check=True, capture_output=True,
        ).stdout
        target = scratch / f"{name}-git"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(target, filter="data")
        return target / "src" / "su3kahler"
    path = Path(tree)
    for candidate in (path / "su3kahler", path / "src" / "su3kahler"):
        if (candidate / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"no su3kahler package under {tree}")


def _load(tree: str, scratch: Path, name: str):
    """The cli module of the tree, imported as package ``name``."""
    shutil.copytree(
        _package_dir(tree, scratch, name), scratch / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(f"{name}.cli")


def _run(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _pass(clis, ops, gate=None) -> tuple[tuple[list[float], list[float]], int, list[int]]:
    """The seconds each tree spent on each op, alternating the order op by
    op. With ``gate``, the benchmark's gate of an op and its (code,
    stdout), also the count of ops whose (code, stdout) differ between the
    trees and the count of gate failures of each tree; the first op of
    each kind is named on stderr."""
    times = ([], [])
    differing, failures = 0, [0, 0]
    for k, op in enumerate(ops):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        results = [None, None]
        for side in order:
            start = perf_counter()
            results[side] = _run(clis[side], op.argv)
            times[side].append(perf_counter() - start)
        if gate is None:
            continue
        if results[0] != results[1]:
            if not differing:
                print(f"outputs differ on op {k}: {' '.join(op.argv)}", file=sys.stderr, flush=True)
            differing += 1
        for side, result in enumerate(results):
            outcome = gate(op, result)
            if not outcome.ok:
                if not failures[side]:
                    print(f"gate fails on op {k} of {'ab'[side]}: {outcome.detail}", file=sys.stderr, flush=True)
                failures[side] += 1
    return times, differing, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", required=True, help="the reference tree: a directory or git:REV")
    parser.add_argument("--b", required=True, help="the tree compared with it: a directory or git:REV")
    parser.add_argument("--workload", choices=("audit", "certify"), default="audit")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=2000)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.ops < 1 or args.passes < 1:
        parser.error("--ops and --passes must be >= 1")

    saved_path = sys.path[:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads as wl

        golden = wl.load_golden(args.workload)
        ops = wl.make_ops(args.workload, golden, args.seed, args.ops)
        warmup = wl.make_ops(args.workload, golden, args.seed, wl.WARMUP_OPS[args.workload], stream="warmup")
        with tempfile.TemporaryDirectory() as scratch:
            sys.path.insert(0, scratch)
            clis = [_load(tree, Path(scratch), name) for tree, name in zip((args.a, args.b), PACKAGES)]
            _pass(clis, warmup)
            gc.collect()
            gc.freeze()
            passes = []
            for k in range(args.passes):
                gate = functools.partial(wl.gate, args.workload, golden) if k == 0 else None
                times, count, failures = _pass(clis, ops, gate)
                if k == 0:
                    differing, gate_failures = count, dict(zip("ab", failures))
                a, b = (sum(t) / len(t) * 1e6 for t in times)
                a50, b50 = (statistics.median(t) * 1e6 for t in times)
                passes.append({
                    "a_us_per_op": round(a, 2), "b_us_per_op": round(b, 2), "ratio": round(a / b, 4),
                    "a_p50_us": round(a50, 2), "b_p50_us": round(b50, 2), "p50_ratio": round(a50 / b50, 4),
                })
                print(
                    f"pass {k}: a {a:.2f} us/op (p50 {a50:.2f}), b {b:.2f} us/op (p50 {b50:.2f}), "
                    f"a/b {a / b:.4f} (p50 {a50 / b50:.4f})",
                    flush=True,
                )
    finally:
        gc.unfreeze()
        sys.path[:] = saved_path
        for module in [m for m in sys.modules if m.split(".")[0] in PACKAGES]:
            del sys.modules[module]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "ops": len(ops), "a": args.a, "b": args.b,
        "identical_outputs": not differing, "differing_ops": differing, "gate_failures": gate_failures,
        "passes": passes,
        "median_ratio": statistics.median(p["ratio"] for p in passes),
        "median_p50_ratio": statistics.median(p["p50_ratio"] for p in passes),
    }))
    return 1 if differing or any(gate_failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
