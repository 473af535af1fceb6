"""In-memory spans around coherekit's public entry points.

`Tracer.install` wraps, from outside the package, the functions listed in
`TARGETS`.  A name that one module binds with `from … import` is a second
reference to the same function object, so every binding of that object in
every coherekit module is replaced, each by a wrapper that also records
where the name was looked up (the span's *site*).  Without that, calls
such as `convex_combination` from `coherence` or `propagation`, or
`check_coherence` from `cli`, would silently go uncounted.

A span records its key (layer, name, site), start and end, its parent
span and its operation; for a few names it also records a size measured
at the boundary (points of a hull LP, cells of an LP, worlds of an
enumeration).  A layer's time is self time: each span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from statistics import fmean

LAYERS = ("events", "crq", "coherence", "linprog", "propagation", "dsl", "cli")

# Public entry points per layer, plus the private helpers that carry the
# counts named in the benchmark (subfamilies, pivots, oracle calls, CLI
# commands).  Names missing at some later commit are reported, not fatal.
TARGETS = {
    "events": (
        "AtomRegistry.constituents",
        "AtomRegistry.atom_mask",
        "Event.mask",
        "enumerate_constituents",
        "evaluate",
        "constituents_of",
        "implies",
        "is_impossible",
        "equivalent",
    ),
    "crq": (
        "ConditionalRandomQuantity.__init__",
        "ConditionalRandomQuantity.payoff_poly",
        "conditional_event",
        "conditional_quantity",
        "negate",
        "conjunction",
        "iterated",
        "iterated_simple",
        "given_event",
        "add",
        "reduce_nested",
        "support",
        "payoff_at",
    ),
    "coherence": (
        "Assessment.__init__",
        "build_points",
        "solve_sigma",
        "check_coherence",
        "find_dutch_book",
        "_subset_entries",
    ),
    "linprog": ("simplex_minimize", "convex_combination", "best_uniform_gain", "_pivot"),
    "propagation": (
        "mp_bounds",
        "product_prevision",
        "mp_family",
        "extension_interval",
        "verify_decomposition",
        "_coherent_with_target",
    ),
    "dsl": ("parse", "parse_expression", "build", "serialize"),
    "cli": ("main", "_cmd_check", "_cmd_dutchbook", "_cmd_extend", "_cmd_mp", "_cmd_table"),
}

MEASURES = {
    ("linprog", "convex_combination"): lambda args, result: len(args[0]),
    ("linprog", "simplex_minimize"): lambda args, result: len(args[0]) * len(args[2]),
    ("events", "AtomRegistry.constituents"): lambda args, result: len(result),
}

# Per-layer metrics: (name, unit).  All of them are better when lower.
PER_LAYER = (
    ("propagation.oracle_calls", "count"),
    ("propagation.hull_lps_per_interval", "count"),
    ("propagation.ms", "ms"),
    ("coherence.subfamilies", "count"),
    ("coherence.hull_lps", "count"),
    ("coherence.points_per_hull_lp", "count"),
    ("coherence.stake_lps", "count"),
    ("coherence.assessments", "count"),
    ("coherence.ms", "ms"),
    ("linprog.lps", "count"),
    ("linprog.cells_per_lp", "count"),
    ("linprog.pivots", "count"),
    ("linprog.ms_per_lp", "ms"),
    ("linprog.ms", "ms"),
    ("crq.support_calls", "count"),
    ("crq.ms", "ms"),
    ("events.worlds", "count"),
    ("events.ms", "ms"),
    ("events.setup_ms", "ms"),
    ("dsl.parse_ms", "ms"),
    ("dsl.build_ms", "ms"),
    ("cli.ms", "ms"),
)


class Spans:
    """Spans of one phase in parallel arrays (about 40 bytes a span).

    Span i has key[i], start[i], end[i] (ns), parent[i] (index of the
    enclosing span in this phase, -1 for none), op[i] (index of the
    operation, -1 in set-up) and, for measured names, extra[i]."""

    def __init__(self) -> None:
        self.key = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.extra: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.key)


class Tracer:
    def __init__(self) -> None:
        self.keys: list[tuple[str, str, str]] = []  # (layer, name, site)
        self.spans = Spans()
        self.stack: list[int] = []
        self.op = [-1]
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every target wherever coherekit binds it."""
        modules = {layer: importlib.import_module(f"coherekit.{layer}") for layer in LAYERS}
        namespaces = [
            (name.rpartition(".")[2], module)
            for name, module in list(sys.modules.items())
            if name == "coherekit" or name.startswith("coherekit.")
        ]
        for layer, names in TARGETS.items():
            module = modules[layer]
            for dotted in names:
                measure = MEASURES.get((layer, dotted))
                cls_name, _, attr = dotted.rpartition(".")
                if cls_name:
                    cls = getattr(module, cls_name, None)
                    fn = vars(cls).get(attr) if isinstance(cls, type) else None
                    if fn is None:
                        self.missing.append(f"{layer}.{dotted}")
                        continue
                    setattr(cls, attr, self._wrap(fn, (layer, dotted, layer), measure))
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{layer}.{dotted}")
                    continue
                for site, namespace in namespaces:
                    for bound, value in list(vars(namespace).items()):
                        if value is fn:
                            wrapper = self._wrap(fn, (layer, dotted, site), measure)
                            setattr(namespace, bound, wrapper)

    def _wrap(self, fn, key, measure):
        key_id = len(self.keys)
        self.keys.append(key)
        tracer, stack, current, clock = self, self.stack, self.op, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans.key)
            spans.key.append(key_id)
            spans.parent.append(stack[-1] if stack else -1)
            spans.op.append(current[0])
            spans.end.append(0)
            stack.append(index)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[index] = clock()
                stack.pop()
            if measure is not None:
                spans.extra[index] = measure(args, result)
            return result

        return traced

    def take(self) -> Spans:
        """Hand over the spans recorded so far and start a new phase."""
        spans, self.spans = self.spans, Spans()
        return spans

    def write(self, path: Path, phases: dict[str, Spans]) -> None:
        """Write spans as gzip'd tab-separated lines, one per span; `parent`
        is the index of the parent span within the same phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("phase\top\tlayer\tname\tsite\tstart_ns\tend_ns\tparent\textra\n")
            for phase, spans in phases.items():
                for i in range(len(spans)):
                    layer, name, site = self.keys[spans.key[i]]
                    out.write(
                        f"{phase}\t{spans.op[i]}\t{layer}\t{name}\t{site}\t{spans.start[i]}"
                        f"\t{spans.end[i]}\t{spans.parent[i]}\t{spans.extra.get(i, '')}\n"
                    )

    def self_ms(self, spans: Spans) -> dict[tuple[str, str], float]:
        """Self time in ms per (layer, name)."""
        durations = [end - start for start, end in zip(spans.start, spans.end)]
        child_ns = [0] * len(spans)
        for parent, duration in zip(spans.parent, durations):
            if parent >= 0:
                child_ns[parent] += duration
        by_key = [0] * len(self.keys)
        for key_id, duration, child in zip(spans.key, durations, child_ns):
            by_key[key_id] += duration - child
        out: dict[tuple[str, str], float] = defaultdict(float)
        for (layer, name, _), ns in zip(self.keys, by_key):
            out[layer, name] += ns / 1e6
        return out

    def per_layer(self, setup_spans: Spans, spans: Spans, ops: int) -> dict[str, float]:
        """Per-layer metrics of a traced run: counts and self times per
        operation, sizes as means over their calls, propagation counts per
        extension interval."""
        counts: Counter = Counter()
        sizes: dict[str, list[int]] = defaultdict(list)
        in_interval = [False] * len(spans)
        interval_counts: Counter = Counter()
        for index, (key_id, parent) in enumerate(zip(spans.key, spans.parent)):
            layer, name, site = self.keys[key_id]
            counts[name] += 1
            counts[name, site] += 1
            if index in spans.extra:
                sizes[name].append(spans.extra[index])
            inside = name == "extension_interval" or (parent >= 0 and in_interval[parent])
            in_interval[index] = inside
            if inside:
                interval_counts[name] += 1
        self_ms = self.self_ms(spans)
        layer_ms: dict[str, float] = defaultdict(float)
        for (layer, _), ms in self_ms.items():
            layer_ms[layer] += ms
        setup_events_ms = sum(
            (ms for (layer, _), ms in self.self_ms(setup_spans).items() if layer == "events"),
            0.0,
        )
        intervals = counts["extension_interval"]

        def per_op(value: float) -> float:
            return value / ops

        def per_interval(value: float) -> float:
            return value / intervals if intervals else 0.0

        def mean(name: str) -> float:
            return fmean(sizes[name]) if sizes[name] else 0.0

        lps = counts["simplex_minimize"]
        values = {
            "propagation.oracle_calls": per_interval(
                interval_counts["_coherent_with_target"] + interval_counts["check_coherence"]
            ),
            "propagation.hull_lps_per_interval": per_interval(
                interval_counts["convex_combination"]
            ),
            "propagation.ms": per_op(layer_ms["propagation"]),
            "coherence.subfamilies": per_op(counts["_subset_entries"]),
            "coherence.hull_lps": per_op(counts["convex_combination", "coherence"]),
            "coherence.points_per_hull_lp": mean("convex_combination"),
            "coherence.stake_lps": per_op(counts["best_uniform_gain"]),
            "coherence.assessments": per_op(counts["Assessment.__init__"]),
            "coherence.ms": per_op(layer_ms["coherence"]),
            "linprog.lps": per_op(lps),
            "linprog.cells_per_lp": mean("simplex_minimize"),
            "linprog.pivots": per_op(counts["_pivot"]),
            "linprog.ms_per_lp": layer_ms["linprog"] / lps if lps else 0.0,
            "linprog.ms": per_op(layer_ms["linprog"]),
            "crq.support_calls": per_op(counts["support"]),
            "crq.ms": per_op(layer_ms["crq"]),
            "events.worlds": mean("AtomRegistry.constituents"),
            "events.ms": per_op(layer_ms["events"]),
            "events.setup_ms": setup_events_ms,
            "dsl.parse_ms": per_op(self_ms["dsl", "parse"] + self_ms["dsl", "parse_expression"]),
            "dsl.build_ms": per_op(self_ms["dsl", "build"]),
            "cli.ms": per_op(layer_ms["cli"]),
        }
        return values
