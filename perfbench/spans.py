"""Spans around calls into chargecent's public functions, for the traced run.

``Instrumentation`` rebinds each function in ``WRAPPED`` (and two
``ScoreVector`` methods) in every ``chargecent.*`` module namespace that holds
it, so calls the program makes between its own modules are timed too, and
puts the originals back on exit. A name that no module holds any more is
reported as absent rather than failing the run. ``run_sir_episode`` is left
alone on purpose: it runs once per SIR episode, and a wrapper there would
cost more than the episode.

Spans stay in memory in a ``Tracer``; ``layer_metrics`` turns the spans of
one pass into the per-layer metrics. Counts come from the values the wrapped
functions return, mostly their ``meta`` dicts.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

WRAPPED = (
    "load_edge_list", "make_instance", "build_state_graph",
    "max_alpha", "soc_katz", "standard_katz",
    "soc_betweenness",
    "sample_feasible_pairs", "soc_rwbc", "walk_subgraph", "directed_rwbc_pair", "rwbc_all_pairs",
    "sir_influence", "particle_hopping",
    "kendall_tau",
)
METHODS = (("ScoreVector", "write_csv"), ("ScoreVector", "read_csv"))


def _meta(res) -> dict:
    return getattr(res, "meta", {})


# name -> counts taken from (positional args, result)
COUNTS: dict[str, Callable[[tuple, Any], dict]] = {
    "load_edge_list": lambda a, r: {"nodes": r.n, "arcs": r.n_arcs},
    "build_state_graph": lambda a, r: {"states": r.n_states, "arcs": r.n_arcs},
    "soc_katz": lambda a, r: {"iters": _meta(r).get("iterations", 0)},
    "soc_betweenness": lambda a, r: {"sources": len(r.values)},
    "soc_rwbc": lambda a, r: {
        "pairs": _meta(r).get("pairs", 0),
        "skipped": _meta(r).get("skipped_pairs", 0),
        "targets": len({int(p[1]) for p in a[1]}),
    },
    "sir_influence": lambda a, r: {"episodes": _meta(r).get("runs", 0) * len(r.values)},
    "particle_hopping": lambda a, r: {
        "steps": _meta(r).get("duration", 0),
        "placed": _meta(r).get("placed", 0),
        "completed": _meta(r).get("completed", 0),
        "delayed": _meta(r).get("delayed_injection_steps", 0),
    },
    "kendall_tau": lambda a, r: {"n": len(a[0])},
    "ScoreVector.write_csv": lambda a, r: {"rows": len(a[0])},
}


class Tracer:
    """Spans of one traced pass: name, start, end, parent index in ``spans``, pass id, counts."""

    def __init__(self, pass_id: int):
        self.spans: list[dict] = []
        self.pass_id = pass_id
        self.scale = 1.0  # calibration factor of the pass, set after it ends
        self._stack: list[int] = []
        self.count_errors: set[str] = set()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "pass": self.pass_id, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        counts = COUNTS.get(name)
        if counts is not None:
            try:
                span["counts"] = counts(args, result)
            except (AttributeError, KeyError, TypeError, IndexError):
                self.count_errors.add(name)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper


class Instrumentation:
    """Context manager that rebinds the wrapped names and restores them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "chargecent" or k.startswith("chargecent."))]
        for name in WRAPPED:
            wrappers: dict[int, Callable] = {}
            for mod in mods:
                fn = vars(mod).get(name)
                if callable(fn) and getattr(fn, "__module__", "").startswith("chargecent"):
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self.tracer.wrap(name, fn)
                    self._rebind(mod, name, fn, wrappers[id(fn)])
            if not wrappers:
                self.absent.append(name)
        for cls_name, meth in METHODS:
            qual = f"{cls_name}.{meth}"
            cls = next((vars(m)[cls_name] for m in mods if isinstance(vars(m).get(cls_name), type)), None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                self.absent.append(qual)
            elif isinstance(raw, classmethod):
                self._rebind(cls, meth, raw, classmethod(self.tracer.wrap(qual, raw.__func__)))
            else:
                self._rebind(cls, meth, raw, self.tracer.wrap(qual, raw))
        return self

    def _rebind(self, owner, name: str, old, new) -> None:
        self._undo.append((owner, name, old))
        setattr(owner, name, new)

    def __exit__(self, *exc) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()


# Per-layer metrics: name, unit, which direction is better.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.ops_attempted", "count", "higher"),
    ("cli.ops_failed", "count", "lower"),
    ("graph.load_edge_list_s", "s", "lower"),
    ("graph.load_edge_list_calls", "count", "lower"),
    ("graph.nodes", "count", "lower"),
    ("graph.arcs", "count", "lower"),
    ("statespace.build_state_graph_s", "s", "lower"),
    ("statespace.build_state_graph_calls", "count", "lower"),
    ("statespace.states", "count", "lower"),
    ("statespace.arcs", "count", "lower"),
    ("katz.max_alpha_s", "s", "lower"),
    ("katz.max_alpha_calls", "count", "lower"),
    ("katz.soc_katz_self_s", "s", "lower"),
    ("katz.series_iters", "count", "lower"),
    ("katz.standard_katz_s", "s", "lower"),
    ("betweenness.soc_betweenness_s", "s", "lower"),
    ("betweenness.sources_per_s", "1/s", "higher"),
    ("rwbc.soc_rwbc_self_s", "s", "lower"),
    ("rwbc.walk_subgraph_s", "s", "lower"),
    ("rwbc.directed_rwbc_pair_s", "s", "lower"),
    ("rwbc.pair_s_p50", "s", "lower"),
    ("rwbc.pair_s_max", "s", "lower"),
    ("rwbc.pairs", "count", "lower"),
    ("rwbc.distinct_targets", "count", "lower"),
    ("rwbc.skipped_pairs", "count", "lower"),
    ("rwbc.rwbc_all_pairs_s", "s", "lower"),
    ("rwbc.sample_feasible_pairs_s", "s", "lower"),
    ("simulate.sir_influence_s", "s", "lower"),
    ("simulate.sir_episodes", "count", "lower"),
    ("simulate.sir_episodes_per_s", "1/s", "higher"),
    ("simulate.particle_hopping_s", "s", "lower"),
    ("simulate.hop_steps_per_s", "1/s", "higher"),
    ("simulate.trips_completed", "count", "higher"),
    ("simulate.trip_completion_ratio", "ratio", "higher"),
    ("simulate.delayed_injection_steps", "count", "lower"),
    ("stats.kendall_tau_s", "s", "lower"),
    ("stats.kendall_tau_calls", "count", "lower"),
    ("stats.kendall_tau_n", "count", "lower"),
    ("scores.write_csv_s", "s", "lower"),
    ("scores.read_csv_s", "s", "lower"),
    ("scores.rows_written", "count", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.raw_wall_s", "s", "lower"),
    ("bench.calibration_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], scale: float) -> dict[str, float]:
    """Per-layer metrics of one pass; durations are multiplied by the calibration ``scale``."""
    child_s = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child_s[sp["parent"]] += (sp["end"] - sp["start"]) * scale
    by_name: dict[str, list[tuple[float, float, dict, int | None]]] = defaultdict(list)
    for i, sp in enumerate(spans):
        dur = (sp["end"] - sp["start"]) * scale
        by_name[sp["name"]].append((dur, dur - child_s[i], sp["counts"], sp["parent"]))

    def total(name):
        return sum(d for d, _, _, _ in by_name[name])

    def self_s(name):
        return sum(s for _, s, _, _ in by_name[name])

    def calls(name):
        return len(by_name[name])

    def count(name, key, agg=sum):
        return agg([c.get(key, 0) for _, _, c, _ in by_name[name]] or [0])

    soc_rwbc_ids = {i for i, sp in enumerate(spans) if sp["name"] == "soc_rwbc"}
    pair_s = [d for d, _, _, parent in by_name["directed_rwbc_pair"] if parent in soc_rwbc_ids]
    placed = count("particle_hopping", "placed")
    return {
        "cli.self_s": self_s("cli"),
        "graph.load_edge_list_s": total("load_edge_list"),
        "graph.load_edge_list_calls": calls("load_edge_list"),
        "graph.nodes": count("load_edge_list", "nodes", max),
        "graph.arcs": count("load_edge_list", "arcs", max),
        "statespace.build_state_graph_s": total("build_state_graph"),
        "statespace.build_state_graph_calls": calls("build_state_graph"),
        "statespace.states": count("build_state_graph", "states", max),
        "statespace.arcs": count("build_state_graph", "arcs", max),
        "katz.max_alpha_s": total("max_alpha"),
        "katz.max_alpha_calls": calls("max_alpha"),
        "katz.soc_katz_self_s": self_s("soc_katz"),
        "katz.series_iters": count("soc_katz", "iters"),
        "katz.standard_katz_s": total("standard_katz"),
        "betweenness.soc_betweenness_s": total("soc_betweenness"),
        "betweenness.sources_per_s": _ratio(count("soc_betweenness", "sources"), total("soc_betweenness")),
        "rwbc.soc_rwbc_self_s": self_s("soc_rwbc"),
        "rwbc.walk_subgraph_s": total("walk_subgraph"),
        "rwbc.directed_rwbc_pair_s": total("directed_rwbc_pair"),
        "rwbc.pair_s_p50": statistics.median(pair_s) if pair_s else 0.0,
        "rwbc.pair_s_max": max(pair_s, default=0.0),
        "rwbc.pairs": count("soc_rwbc", "pairs"),
        "rwbc.distinct_targets": count("soc_rwbc", "targets"),
        "rwbc.skipped_pairs": count("soc_rwbc", "skipped"),
        "rwbc.rwbc_all_pairs_s": total("rwbc_all_pairs"),
        "rwbc.sample_feasible_pairs_s": total("sample_feasible_pairs"),
        "simulate.sir_influence_s": total("sir_influence"),
        "simulate.sir_episodes": count("sir_influence", "episodes"),
        "simulate.sir_episodes_per_s": _ratio(count("sir_influence", "episodes"), total("sir_influence")),
        "simulate.particle_hopping_s": total("particle_hopping"),
        "simulate.hop_steps_per_s": _ratio(count("particle_hopping", "steps"), total("particle_hopping")),
        "simulate.trips_completed": count("particle_hopping", "completed"),
        "simulate.trip_completion_ratio": _ratio(count("particle_hopping", "completed"), placed),
        "simulate.delayed_injection_steps": count("particle_hopping", "delayed"),
        "stats.kendall_tau_s": total("kendall_tau"),
        "stats.kendall_tau_calls": calls("kendall_tau"),
        "stats.kendall_tau_n": count("kendall_tau", "n"),
        "scores.write_csv_s": total("ScoreVector.write_csv"),
        "scores.read_csv_s": total("ScoreVector.read_csv"),
        "scores.rows_written": count("ScoreVector.write_csv", "rows"),
    }
