"""Spans and counters around arclat's public entry points, from outside.

`Tracer.install()` replaces every module binding of each entry point listed
in ENTRY_POINTS (several arclat modules import functions by name, so one
function can have many bindings) and the listed methods on their classes.
A span wrapper records (name, start, end, parent, op id) in memory; a
count wrapper, used on the hot predicates, only counts calls.  Nothing is
written until `summary()` / `dump()` at the end of the run.

Self time of a span is its duration minus the durations of its direct child
spans.  Time in a count-only function is part of its caller's self time.

Calls made while a `bench.check` span is open belong to the benchmark's
reference checks, not to the program under test: the wrappers pass them
straight through, so they add to no layer's calls, self time or ratios and
their time is part of `bench.check`'s self time.  The lru-cache deltas
taken inside check spans are subtracted from the cache hit ratios too.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# (metric name, module, attribute path, wrapper kind)
ENTRY_POINTS = [
    ("lattice.build_lattice", "lattice", "build_lattice", "span"),
    ("lattice.cjr_oracle", "lattice", "cjr_oracle", "span"),
    ("lattice.principal_congruence", "lattice", "principal_congruence", "span"),
    ("lattice.cjr_quotient_check", "lattice", "cjr_quotient_check", "span"),
    ("lattice.quotient", "lattice", "quotient", "span"),
    ("lattice.forcing_oracle", "lattice", "forcing_oracle", "span"),
    ("permutations.weak_order_lattice", "permutations", "weak_order_lattice", "span"),
    ("permutations.cjr_weak", "permutations", "cjr_weak", "span"),
    ("arcs_a.diagram_of", "arcs_a", "diagram_of", "span"),
    ("arcs_a.word_of", "arcs_a", "word_of", "span"),
    ("arcs_b.all_arcs", "arcs_b", "all_arcs", "span"),
    ("arcs_b.diagram_of_signed", "arcs_b", "diagram_of_signed", "span"),
    ("arcs_b.signed_of_diagram", "arcs_b", "signed_of_diagram", "span"),
    ("forcing.is_subarc", "forcing", "is_subarc", "count"),
    ("forcing.has_arrow", "forcing", "has_arrow", "count"),
    ("forcing.project", "forcing", "project", "count"),
    ("forcing.ArcCongruence", "forcing", "ArcCongruence.__init__", "span"),
    ("forcing.quotient_elements", "forcing", "quotient_elements", "span"),
    ("forcing.element_partition", "forcing", "element_partition", "span"),
    ("catalog.cambrian_congruence", "catalog", "cambrian_congruence", "span"),
    ("catalog.parabolic_congruence", "catalog", "parabolic_congruence", "span"),
    ("catalog.hom_congruence", "catalog", "hom_congruence", "span"),
    ("geometry.regions", "geometry", "Arrangement.regions", "span"),
    ("geometry.shards", "geometry", "shards", "span"),
    ("geometry.min_upper_region", "geometry", "min_upper_region", "span"),
    ("geometry.rank_two", "geometry", "rank_two", "span"),
    ("geometry.shard_arrow_geometric", "geometry", "shard_arrow_geometric", "span"),
    ("geometry.arrow_witness_check", "geometry", "arrow_witness_check", "span"),
    ("geometry.shards_compatible", "geometry", "shards_compatible", "span"),
    ("geometry.descriptor_matches", "geometry", "descriptor_matches", "span"),
    ("feasible.witness", "feasible", "LinearSystem.witness", "span"),
    ("render.render", "render", "render", "span"),
    ("cli.main", "cli", "main", "span"),
]

# Every *_to_json / *_from_json in serialize is traced under one name.
SERIALIZE = "serialize.json"

CHECK = "bench.check"
OP_PREFIX = "op:"


class Tracer:
    def __init__(self, caches: Callable[[], dict]):
        self.spans: List[list] = []  # [name, start, end, parent index, op id]
        self.stack = [-1]
        self.op = -1
        self.checking = False  # a CHECK span is open: library calls are not traced
        self.caches = caches  # () -> {name: (hits, misses)} of arclat's lru caches
        self.cache_at_install: dict = {}
        self.cache_at_check: dict = {}
        self.cache_in_checks: Counter = Counter()
        self.counts: Counter = Counter()
        self.seen: Dict[str, set] = defaultdict(set)  # distinct argument keys
        self.keep: dict = {}  # keeps keyed objects alive so their ids stay unique
        self.hits: Counter = Counter()  # useful outcomes, for ratios
        self.rank_two_by_m: Dict[int, list] = defaultdict(lambda: [0, set()])  # calls, distinct pairs

    # -- spans -------------------------------------------------------------
    def enter(self, name: str) -> int:
        if name == CHECK:
            self.checking = True
            self.cache_at_check = self.caches()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1], self.op])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        if self.spans[idx][0] == CHECK:
            self.checking = False
            for key, (hits, misses) in self.caches().items():
                self.cache_in_checks[key, 0] += hits - self.cache_at_check[key][0]
                self.cache_in_checks[key, 1] += misses - self.cache_at_check[key][1]

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.checking:
                return fn(*args, **kwargs)
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if not tracer.checking:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- ratio hooks -------------------------------------------------------
    def _distinct(self, name: str, obj, *key) -> None:
        self.seen[name].add((id(obj),) + key)
        self.keep[id(obj)] = obj

    def _after(self, name: str) -> Optional[Callable]:
        if name == "lattice.cjr_oracle":
            return lambda args, _r: self._distinct(name, args[0], args[1])
        if name == "geometry.rank_two":
            def per_arrangement(args, _r):
                self._distinct(name, args[0], args[1], args[2])
                entry = self.rank_two_by_m[args[0].m()]
                entry[0] += 1
                entry[1].add((id(args[0]), args[1], args[2]))
            return per_arrangement
        if name == "feasible.witness":
            return lambda _a, r: self.hits.update({name: r is not None})
        if name == "forcing.quotient_elements":
            def scanned(args, r):
                n = args[0].n
                self.hits[name] += len(r)
                self.hits[name + ".scanned"] += 2**n * math.factorial(n)
            return scanned
        return None

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every binding of every entry point in the loaded arclat modules."""
        import arclat

        self.cache_at_install = self.caches()

        mods = [m for k, m in sorted(sys.modules.items()) if k == "arclat" or k.startswith("arclat.")]
        for name, mod_name, attr, kind in ENTRY_POINTS:
            owner = getattr(arclat, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.span(name, getattr(cls, meth), self._after(name)))
                continue
            original = getattr(owner, attr)
            wrapped = self.count(name, original) if kind == "count" else self.span(name, original, self._after(name))
            self._rebind(mods, original, wrapped)
        for attr in dir(arclat.serialize):
            if attr.endswith("_to_json") or attr.endswith("_from_json"):
                original = getattr(arclat.serialize, attr)
                if callable(original):
                    self._rebind(mods, original, self.span(SERIALIZE, original))

    @staticmethod
    def _rebind(mods: list, original: Callable, wrapped: Callable) -> None:
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        """Per-entry calls and self time, ratios, and the per-op accounting."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter(self.counts)
        self_s: Dict[str, float] = defaultdict(float)
        slowest: Dict[str, tuple] = {}  # name -> (largest single self time, its op id)
        op_total: Dict[str, float] = defaultdict(float)
        unattributed: Dict[str, float] = defaultdict(float)
        for k, (name, t0, t1, parent, op_id) in enumerate(self.spans):
            own = (t1 - t0) - child[k]
            if name.startswith(OP_PREFIX):
                kind = name[len(OP_PREFIX):]
                op_total[kind] += t1 - t0
                unattributed[kind] += own
                continue
            calls[name] += 1
            self_s[name] += own
            if own > slowest.get(name, (-1.0, -1))[0]:
                slowest[name] = (own, op_id)
        ratios = {
            "lattice.cjr_oracle.distinct_ratio": _ratio(len(self.seen["lattice.cjr_oracle"]), calls["lattice.cjr_oracle"]),
            "geometry.rank_two.distinct_ratio": _ratio(len(self.seen["geometry.rank_two"]), calls["geometry.rank_two"]),
            "geometry.rank_two.distinct": len(self.seen["geometry.rank_two"]),
            "feasible.witness.feasible_ratio": _ratio(self.hits["feasible.witness"], calls["feasible.witness"]),
            "forcing.quotient_elements.yield_ratio": _ratio(
                self.hits["forcing.quotient_elements"], self.hits["forcing.quotient_elements.scanned"]
            ),
        }
        start = self.cache_at_install
        for name, (hits, misses) in self.caches().items():
            hits -= start[name][0] + self.cache_in_checks[name, 0]
            misses -= start[name][1] + self.cache_in_checks[name, 1]
            ratios[name + ".hit_ratio"] = _ratio(hits, hits + misses)
        return {
            "calls": dict(sorted(calls.items())),
            "self_s": dict(sorted(self_s.items())),
            "ratios": ratios,
            "op_total_s": dict(sorted(op_total.items())),
            "unattributed_s": dict(sorted(unattributed.items())),
            "slowest": slowest,
            "rank_two_by_hyperplanes": {m: [n, len(pairs)] for m, (n, pairs) in sorted(self.rank_two_by_m.items())},
        }

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
