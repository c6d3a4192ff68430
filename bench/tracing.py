"""In-memory spans around the package's layer functions, and the per-layer
metrics derived from them.

Tracing lives entirely in the benchmark: :func:`traced` swaps each wrapped
name in the module that looks it up at call time for a recording wrapper,
and puts every original back on exit.  A span is ``(name, start, end,
parent, counts)``; times come from ``time.perf_counter_ns``.  A layer's self
time is the length of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

from persistwalk import durations, engine, exponent, montecarlo, oracle


class Tracer:
    """Spans kept in memory; :meth:`dump` writes them once the run ends."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, counts]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, {}])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def close(self, sid: int, counts: dict) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter_ns()
        span[4] = counts
        self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "counts": counts}) + "\n")


def _size(a) -> int:
    return int(np.size(a))


def _passage_counts(args, kwargs, out):
    u = args[0]
    q_edge = durations._q_table()[-1]
    return {"calls": 1, "draws": _size(u),
            "tail_draws": int(np.count_nonzero(np.asarray(u) < q_edge)),
            "capped": int(np.count_nonzero(out[1]))}


def _xi_counts(args, kwargs, out):
    counts = {"pair_updates": out.trials * int(args[2] if out.engine == "duration-table"
                                               else args[1])}
    if out.engine == "exact-excursion":
        counts.update(undecided=out.undecided, capped_draws=out.capped_draws)
    return counts


def _sample_tau_counts(args, kwargs, out):
    # args[0] is the ExcursionTables instance: (self, side, entry_idx, u)
    return {"draws": _size(args[3]), "tail_draws": int(np.count_nonzero(out[1]))}


# (owner, attribute, span name, counts(args, kwargs, result) or None).  Each
# owner is the module (or class) through which the package looks the name
# up at call time: engine and exponent import the rng and increments
# functions by name, and srw_tau_from_uniform_pairs finds
# unit_passage_from_uniforms in the durations module's globals.
WRAPPED = (
    (engine, "trial_keys", "rng.trial_keys", lambda a, k, o: {"keys": _size(a[1])}),
    (exponent, "trial_keys", "rng.trial_keys", lambda a, k, o: {"keys": _size(a[1])}),
    (engine, "uniform_at", "rng.uniform_at", lambda a, k, o: {"draws": _size(o)}),
    (exponent, "uniform_at", "rng.uniform_at", lambda a, k, o: {"draws": _size(o)}),
    (engine, "steps_from_uniforms", "increments.steps",
     lambda a, k, o: {"draws": _size(o)}),
    (durations, "unit_passage_from_uniforms", "durations.passage", _passage_counts),
    (durations, "srw_tau_from_uniform_pairs", "durations.passage",
     lambda a, k, o: {"pairs": _size(o[0])}),
    (durations, "_one_sided_tables", "durations.tables.build", None),
    (durations.ExcursionTables, "sample_tau", "durations.tables.sample_tau",
     _sample_tau_counts),
    (durations.ExcursionTables, "sample_exit", "durations.tables.sample_exit",
     lambda a, k, o: {"draws": _size(o)}),
    (engine, "srw_excursion_first_violation", "engine.stretch", None),
    (engine, "_srw_xi_chunk", "engine.xi", _xi_counts),
    (engine, "_table_xi_chunk", "engine.xi", _xi_counts),
    (engine, "stepped_first_violation", "engine.stepped", None),
    (montecarlo, "fit_exponent", "montecarlo.fit", None),
    (montecarlo, "write_survival_csv", "montecarlo.csv", None),
    (oracle, "exact_atilde", "oracle.exact_atilde",
     lambda a, k, o: {"layers": int(a[2])}),
)


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        counts = {}
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(args, kwargs, out)
            return out
        finally:
            tracer.close(sid, counts)
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every name in :data:`WRAPPED` through ``tracer`` while active."""
    saved = []
    try:
        for owner, attr, name, counter in WRAPPED:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, counter))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# (metric, unit, better) for every per-layer metric a traced run reports
PER_LAYER = (
    ("durations.passage.calls", "count", "lower"),
    ("durations.passage.draws", "count", "lower"),
    ("durations.passage.tail_draws", "count", "lower"),
    ("durations.passage.capped", "count", "lower"),
    ("durations.passage.self_s", "s", "lower"),
    ("rng.uniform_at.draws", "count", "lower"),
    ("rng.uniform_at.self_s", "s", "lower"),
    ("rng.trial_keys.keys", "count", "lower"),
    ("rng.trial_keys.self_s", "s", "lower"),
    ("increments.steps.draws", "count", "lower"),
    ("increments.steps.self_s", "s", "lower"),
    ("engine.stretch.passes", "count", "lower"),
    ("engine.stretch.lane_updates", "count", "lower"),
    ("engine.stretch.self_s", "s", "lower"),
    ("engine.xi.pair_updates", "count", "lower"),
    ("engine.xi.undecided", "count", "lower"),
    ("engine.xi.capped_draws", "count", "lower"),
    ("engine.xi.self_s", "s", "lower"),
    ("engine.stepped.trial_steps", "count", "lower"),
    ("engine.stepped.self_s", "s", "lower"),
    ("engine.pool.startup_s", "s", "lower"),
    ("durations.tables.build_s", "s", "lower"),
    ("durations.tables.sample_tau.draws", "count", "lower"),
    ("durations.tables.sample_tau.self_s", "s", "lower"),
    ("durations.tables.sample_exit.draws", "count", "lower"),
    ("durations.tables.sample_exit.self_s", "s", "lower"),
    ("durations.tables.tail_draws", "count", "lower"),
    ("montecarlo.fit.self_s", "s", "lower"),
    ("montecarlo.csv.self_s", "s", "lower"),
    ("oracle.exact_atilde.layers", "count", "lower"),
    ("oracle.exact_atilde.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times from a list of spans.

    ``engine.pool.startup_s`` and ``trace.overhead`` are not span-derived
    and come back as 0.0 for the caller to fill in.
    """
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    m = {name: 0 if unit == "count" else 0.0 for name, unit, _ in PER_LAYER}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        self_s = (end - start - covered[i]) / 1e9
        if f"{name}.self_s" in m:
            m[f"{name}.self_s"] += self_s
        if name == "durations.tables.build":
            m["durations.tables.build_s"] += (end - start) / 1e9
        for key, value in counts.items():
            metric = f"{name}.{key}"
            if metric in m:
                m[metric] += value
        if name == "durations.tables.sample_tau":
            m["durations.tables.tail_draws"] += counts.get("tail_draws", 0)
        pname = spans[parent][0] if parent >= 0 else None
        if pname == "engine.stretch" and "pairs" in counts:
            m["engine.stretch.passes"] += 1
            m["engine.stretch.lane_updates"] += counts["pairs"]
        elif pname == "engine.stepped" and name == "increments.steps":
            m["engine.stepped.trial_steps"] += counts["draws"]
    m["trace.spans"] = len(spans)
    return m
