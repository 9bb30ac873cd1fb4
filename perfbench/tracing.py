"""Per-layer tracing from outside the program.

Wrappers are installed on public functions at every site that binds them
by name: the defining module, each module that imported the name, and the
package namespace (``weights.in_cone2``, ``isotropy.cone_condition_holds``,
``quadric.positive_combination`` ...). Spans (name, start, end, parent)
are kept in memory; busy time, self time and call counts are computed from
them after the run. ``conegeom.in_cone2`` runs millions of times per sweep,
so it is only counted.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "su3kahler"
MODULES = ("conegeom", "weights", "isotropy", "quadric", "cohomology", "cli")

SPANNED = {
    "conegeom": ("smith_invariant_factors",),
    "weights": (
        "enumerate_admissible_systems",
        "check_cone_condition",
        "cone_condition_holds",
        "positive_combination",
        "derive",
        "check_level_set_conditions",
        "check_interpolation_path",
    ),
    "isotropy": ("classify_quotient", "freeness_check", "singular_stratum_census"),
    "quadric": (
        "certification_sample",
        "project_to_level",
        "constraint_values",
        "certify_point",
        "moment_map",
    ),
    "cohomology": ("dga_cohomology", "hodge_model", "exact_rank"),
    "cli": ("main",),
}
COUNTED = {"conegeom": ("in_cone2",)}
GENERATORS = {"weights.enumerate_admissible_systems"}

# (metric, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("weights.enumerate_admissible_systems.busy_s", "s"),
    ("weights.enumerate_admissible_systems.candidates", "count"),
    ("weights.enumerate_admissible_systems.yielded", "count"),
    ("weights.enumerate_admissible_systems.yield_ratio", "ratio"),
    ("conegeom.in_cone2.calls", "count"),
    ("conegeom.in_cone2.calls_per_candidate", "calls/candidate"),
    ("isotropy.classify_quotient.calls", "count"),
    ("isotropy.classify_quotient.busy_s", "s"),
    ("weights.check_cone_condition.calls", "count"),
    ("weights.check_cone_condition.self_s", "s"),
    ("weights.cone_condition_holds.calls", "count"),
    ("weights.positive_combination.calls", "count"),
    ("weights.derive.calls", "count"),
    ("isotropy.freeness_check.calls", "count"),
    ("weights.check_level_set_conditions.busy_s", "s"),
    ("weights.check_interpolation_path.busy_s", "s"),
    ("isotropy.singular_stratum_census.busy_s", "s"),
    ("conegeom.smith_invariant_factors.calls", "count"),
    ("conegeom.smith_invariant_factors.busy_s", "s"),
    ("cohomology.dga_cohomology.busy_s", "s"),
    ("cohomology.hodge_model.busy_s", "s"),
    ("cohomology.exact_rank.calls", "count"),
    ("quadric.certification_sample.busy_s", "s"),
    ("quadric.project_to_level.calls", "count"),
    ("quadric.project_to_level.busy_s", "s"),
    ("quadric.project_to_level.iterations", "evals/projection"),
    ("quadric.certify_point.calls", "count"),
    ("quadric.certify_point.busy_s", "s"),
    ("quadric.certify_point.pass_ratio", "ratio"),
    ("quadric.moment_map.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Installs wrappers on enter, restores the original bindings on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod_name, names in table.items():
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
                for fn_name in names:
                    original = getattr(home, fn_name)
                    wrapper = make(f"{mod_name}.{fn_name}", original)
                    for mod in modules:
                        if mod.__dict__.get(fn_name) is original:
                            self._restore.append((mod, fn_name, original))
                            setattr(mod, fn_name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _open(self, name) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn):
        if name in GENERATORS:
            return self._generator(name, fn)
        passed = name == "quadric.certify_point"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if passed and result.passed:
                self.counts[name + ".passed"] += 1
            return result

        return wrapper

    def _generator(self, name, fn):
        """Each resumption of the generator is one span of its layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                self.counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def totals(self):
        """Per-name call counts, busy time (outermost spans) and self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        sub_calls: Counter = Counter()  # (parent name, name) pairs
        for k, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[k]
            if parent >= 0:
                sub_calls[(spans[parent][0], name)] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy[name] += dur
        return calls, busy, self_s, sub_calls


def layer_metrics(tracer: Tracer, candidates: int, stdout_bytes: int,
                  calib_ms: float, overhead_ratio: float) -> dict:
    calls, busy, self_s, sub_calls = tracer.totals()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    enum = "weights.enumerate_admissible_systems"
    yielded = counts[enum + ".yielded"]
    in_cone2 = counts["conegeom.in_cone2"]
    projections = calls["quadric.project_to_level"]
    certs = calls["quadric.certify_point"]
    values = {
        f"{enum}.busy_s": busy[enum],
        f"{enum}.candidates": candidates,
        f"{enum}.yielded": yielded,
        f"{enum}.yield_ratio": ratio(yielded, candidates),
        "conegeom.in_cone2.calls": in_cone2,
        "conegeom.in_cone2.calls_per_candidate": ratio(in_cone2, candidates),
        "quadric.project_to_level.iterations": ratio(
            sub_calls[("quadric.project_to_level", "quadric.constraint_values")], projections
        ),
        "quadric.certify_point.pass_ratio": ratio(counts["quadric.certify_point.passed"], certs),
        "cli.stdout_bytes": stdout_bytes,
        "host.calib_ms": calib_ms,
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric not in values:
            layer, stat = metric.rsplit(".", 1)
            values[metric] = {"calls": calls, "busy_s": busy, "self_s": self_s}[stat][layer]
        out[metric] = {"value": values[metric], "unit": unit}
    return out
