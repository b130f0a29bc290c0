"""Span recorder for the traced benchmark run.

`Tracer.installed()` wraps the package functions listed in SPANS, at
every module binding (e.g. both `multikey_bv.cli.run_circuit` and
`multikey_bv.adversary.run_circuit`) and, for methods, on the class.
Each call records a span (name, parent span, start, end) in memory;
nothing inside the program changes.  Some spans also add to computed
counters, derived from argument and array sizes rather than timed.
`layer_metrics` turns spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import resource
import sys
import time
from collections import Counter

PACKAGE = "multikey_bv"

# span name -> (module, attribute path) of the wrapped callable
SPANS = {
    "cli.main": ("cli", "main"),
    "keyspace.from_strings": ("keyspace", "KeySet.from_strings"),
    "keyspace.bit_sum_profile": ("keyspace", "bit_sum_profile"),
    "keyspace.multiplicity": ("keyspace", "multiplicity"),
    "simulator.build_circuit": ("simulator", "build_circuit"),
    "simulator.run_circuit": ("simulator", "run_circuit"),
    "simulator.hadamard": ("simulator", "StateVector.apply_hadamard"),
    "simulator.x": ("simulator", "StateVector.apply_x"),
    "simulator.oracle": ("simulator", "StateVector.apply_controlled_key_unitary"),
    "simulator.prepare_uniform": ("simulator", "StateVector.prepare_uniform"),
    "simulator.marginal": ("simulator", "StateVector.data_marginal"),
    "simulator.exact_distribution": ("simulator", "exact_distribution"),
    "simulator.sample": ("simulator", "measure_data_register"),
    "simulator.chi_square": ("simulator", "chi_square_vs_exact"),
    "analytics.count_consistent": ("analytics", "count_consistent_keysets"),
    "analytics.prob_all_keys": ("analytics", "prob_all_keys"),
    "analytics.guess_bound": ("analytics", "classical_guess_bound"),
    "analytics.guess_exact": ("analytics", "classical_guess_exact"),
    "adversary.bit_sum_estimation": ("adversary", "estimate_bit_sums"),
    "adversary.guess_attack": ("adversary", "classical_guess_attack"),
    "adversary.coupon": ("adversary", "quantum_coupon_experiment"),
}

# Counters computed from sizes, not timed: they repeat exactly for a
# given seed and round.
COMPUTED_COUNTERS = (
    "simulator.amp_bytes_computed",
    "simulator.hadamard_bytes_computed",
    "analytics.count_consistent.ordered_assignments",
    "adversary.oracle_queries",
    "adversary.coupon.draws",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_amp_bytes(tracer, args, result, state):
    if hasattr(result, "amps"):
        tracer.counters["simulator.amp_bytes_computed"] += result.amps.nbytes


def _count_hadamard_bytes(tracer, args, result, state):
    tracer.counters["simulator.hadamard_bytes_computed"] += args["self"].amps.nbytes


def _count_assignments(tracer, args, result, state):
    tracer.counters["analytics.count_consistent.ordered_assignments"] += result.ordered_count
    tracer.counters["analytics.count_consistent.multisets_found"] += result.multiset_count


def _count_queries(tracer, args, result, queries_before):
    tracer.counters["adversary.oracle_queries"] += args["oracle"].queries - queries_before


def _count_draws(tracer, args, result, rss_before):
    if args["m"] >= args["keys"].k:
        tracer.counters["adversary.coupon.draws"] += args["trials"] * args["m"]
    growth = _maxrss_mb() - rss_before
    key = "adversary.coupon.rss_growth_mb"
    tracer.peaks[key] = max(tracer.peaks.get(key, 0.0), growth)


# span name -> (state taken before the call from its arguments, counter update after it)
HOOKS = {
    "simulator.run_circuit": (None, _count_amp_bytes),
    "simulator.hadamard": (None, _count_hadamard_bytes),
    "analytics.count_consistent": (None, _count_assignments),
    "adversary.bit_sum_estimation": (lambda args: args["oracle"].queries, _count_queries),
    "adversary.coupon": (lambda args: _maxrss_mb(), _count_draws),
}


class Tracer:
    """In-memory spans plus computed counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if after else None
            state = before(bound) if before else None
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
            if after:
                after(self, bound, result, state)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every SPANS target for the duration of the block."""
        saved = []
        try:
            for name, (module, path) in SPANS.items():
                owner = importlib.import_module(f"{PACKAGE}.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if outer else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                # A method lives on its class; a function on every module that imported it.
                targets = [owner] if outer else [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod_name.split(".")[0] == PACKAGE and getattr(mod, attr, None) is raw
                ]
                for target in targets:
                    saved.append((target, attr, target.__dict__[attr]))
                    setattr(target, attr, patched)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"], "spans": self.spans}, fh)


def _busy(spans, names) -> float:
    """Inclusive time of spans in `names`, not counting ones nested in another of them."""
    total = 0.0
    for name, parent, start, end in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][1]
        if parent < 0:
            total += end - start
    return total


def _self(spans, name) -> float:
    """Duration of `name` spans minus the time their direct child spans cover."""
    total = 0.0
    for s_name, _, start, end in spans:
        if s_name == name:
            total += end - start
    for _, parent, start, end in spans:
        if parent >= 0 and spans[parent][0] == name:
            total -= end - start
    return total


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s[0] == name)


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) over every span the tracer holds."""
    s, c = tracer.spans, tracer.counters
    ordered = c["analytics.count_consistent.ordered_assignments"]
    return {
        "cli.main.calls": (_calls(s, "cli.main"), "count"),
        "cli.main.self_s": (_self(s, "cli.main"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "keyspace.busy_s": (
            _busy(s, {"keyspace.from_strings", "keyspace.bit_sum_profile", "keyspace.multiplicity"}),
            "s",
        ),
        "simulator.hadamard.busy_s": (_busy(s, {"simulator.hadamard"}), "s"),
        "simulator.hadamard.calls": (_calls(s, "simulator.hadamard"), "count"),
        "simulator.oracle.busy_s": (_busy(s, {"simulator.oracle"}), "s"),
        "simulator.x.busy_s": (_busy(s, {"simulator.x"}), "s"),
        "simulator.prepare_uniform.busy_s": (_busy(s, {"simulator.prepare_uniform"}), "s"),
        "simulator.run_circuit.self_s": (_self(s, "simulator.run_circuit"), "s"),
        "simulator.marginal.busy_s": (_busy(s, {"simulator.marginal"}), "s"),
        "simulator.exact_distribution.self_s": (_self(s, "simulator.exact_distribution"), "s"),
        "simulator.sample.self_s": (_self(s, "simulator.sample"), "s"),
        "simulator.amp_bytes_computed": (c["simulator.amp_bytes_computed"], "bytes"),
        "simulator.hadamard_bytes_computed": (c["simulator.hadamard_bytes_computed"], "bytes"),
        "simulator.build_circuit.busy_s": (_busy(s, {"simulator.build_circuit"}), "s"),
        "simulator.chi_square.busy_s": (_busy(s, {"simulator.chi_square"}), "s"),
        "analytics.count_consistent.busy_s": (_busy(s, {"analytics.count_consistent"}), "s"),
        "analytics.count_consistent.ordered_assignments": (ordered, "count"),
        "analytics.count_consistent.useful_ratio": (
            c["analytics.count_consistent.multisets_found"] / ordered if ordered else 0.0,
            "ratio",
        ),
        "analytics.prob_all_keys.busy_s": (_busy(s, {"analytics.prob_all_keys"}), "s"),
        "analytics.guess_bounds.busy_s": (
            _busy(s, {"analytics.guess_bound", "analytics.guess_exact"}), "s",
        ),
        "adversary.bit_sum_estimation.busy_s": (_busy(s, {"adversary.bit_sum_estimation"}), "s"),
        "adversary.oracle_queries": (c["adversary.oracle_queries"], "count"),
        "adversary.guess_attack.self_s": (_self(s, "adversary.guess_attack"), "s"),
        "adversary.coupon.self_s": (_self(s, "adversary.coupon"), "s"),
        "adversary.coupon.draws": (c["adversary.coupon.draws"], "count"),
        "adversary.coupon.rss_growth_mb": (
            tracer.peaks.get("adversary.coupon.rss_growth_mb", 0.0), "MB",
        ),
    }
