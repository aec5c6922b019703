"""Span tracing for the traced benchmark run, installed from outside the
library.

Each hook replaces a module attribute that a layer looks up at call time
with a wrapper that records one span: name, start, end and the span that
was open when it began (its parent). Spans live in flat in-memory arrays
and are turned into per-layer metrics, and optionally written out, after
the traced body returns. Self time is a span's duration minus its direct
children's.

Local-score cache counters come from every ``LocalScoreCache`` constructed
while the hooks are installed; ``LocalScoreCache.get`` itself is not
wrapped (about a million calls per headline run).

A hook whose attribute no longer exists, or that sees no calls, leaves its
metrics at 0 and is listed by ``unobserved()``; the end-to-end numbers never
depend on hooks.
"""

from __future__ import annotations

import resource
import time
from array import array
from contextlib import contextmanager

import numpy as np

from coevobn import baselines, bayesnet, cli, evolution, harness, scoring

# (module, attribute, span name). The harness and cli hold their own
# references to the functions they call, so those are hooked separately.
HOOKS = [
    (evolution, "evolve", "evolve"),
    (evolution, "decode_parents", "decode_parents"),
    (evolution, "score_parent_sets", "score_parent_sets"),
    (evolution, "tournament_select", "tournament_select"),
    (evolution, "cycle_crossover", "cycle_crossover"),
    (evolution, "two_point_crossover", "two_point_crossover"),
    (evolution, "bit_flip_mutation", "bit_flip_mutation"),
    (evolution, "swap_mutation", "swap_mutation"),
    (evolution, "elitist_replace", "elitist_replace"),
    (scoring, "count_stats", "count_stats"),
    (baselines, "k2_learn", "k2_learn"),
    (baselines, "local_log_score", "local_log_score"),
    (bayesnet, "random_network", "random_network"),
    (bayesnet, "ancestral_sample", "ancestral_sample"),
    (harness, "evolve", "evolve"),
    (harness, "k2_learn", "k2_learn"),
    (harness, "bde_log_score", "bde_log_score"),
    (harness, "ancestral_sample", "ancestral_sample"),
    (harness, "random_network", "random_network"),
    (cli, "run_comparison", "run_comparison"),
    (cli, "cli_main", "cli_main"),
]

# (unit, better) of every per-layer metric, in output order.
LAYER_METRICS = {
    "bayesnet.random_network_s": ("s", "lower"),
    "bayesnet.ancestral_sample_s": ("s", "lower"),
    "scoring.score_calls": ("count", "lower"),
    "scoring.score_s": ("s", "lower"),
    "scoring.cache_hits": ("count", "higher"),
    "scoring.cache_misses": ("count", "lower"),
    "scoring.hit_rate": ("fraction", "higher"),
    "scoring.cache_entries": ("count", "lower"),
    "scoring.count_stats_calls": ("count", "lower"),
    "scoring.count_stats_s": ("s", "lower"),
    "scoring.us_per_miss": ("us", "lower"),
    "scoring.us_per_hit": ("us", "lower"),
    "encoding.decode_calls": ("count", "lower"),
    "encoding.decode_s": ("s", "lower"),
    "encoding.us_per_decode": ("us", "lower"),
    "encoding.unique_pair_frac": ("fraction", "higher"),
    "evolution.evaluations": ("count", "higher"),
    "evolution.select_s": ("s", "lower"),
    "evolution.crossover_s": ("s", "lower"),
    "evolution.mutation_s": ("s", "lower"),
    "evolution.replace_s": ("s", "lower"),
    "evolution.self_s": ("s", "lower"),
    "evolution.gen_to_best": ("generations", "lower"),
    "baselines.k2_local_scores": ("count", "lower"),
    "baselines.k2_count_stats_s": ("s", "lower"),
    "baselines.k2_self_s": ("s", "lower"),
    "harness.runs": ("count", "higher"),
    "harness.self_s": ("s", "lower"),
    "harness.cpu_per_wall": ("fraction", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def _cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """Records spans and library counters while its hooks are installed."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._missing: list[str] = []
        self._fired: set[int] = set()
        self.name_id = array("i")
        self.reset()

    def reset(self) -> None:
        self._fired.update(self.name_id)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.cpu: dict[int, float] = {}     # span index -> CPU seconds
        self.caches: list = []
        self.traces: list = []              # ConvergenceTrace per evolve call
        self.pairs: list = []               # (evolve span, order, bits) per decode

    def _id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        clock = time.perf_counter
        record = {"decode_parents": self._record_pair,
                  "evolve": self._record_trace}.get(name)
        cpu = name == "run_comparison"

        def hooked(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            cpu0 = _cpu_seconds() if cpu else 0.0
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if cpu:
                self.cpu[idx] = _cpu_seconds() - cpu0
            if record is not None:
                record(idx, args, result)
            return result

        return hooked

    def _record_pair(self, idx, args, result) -> None:
        self.pairs.append((self.parent[idx], args[0], args[1]))

    def _record_trace(self, idx, args, result) -> None:
        trace = getattr(result[1], "records", None) \
            if isinstance(result, tuple) and len(result) == 2 else None
        if trace is not None:
            self.traces.append(trace)

    @contextmanager
    def installed(self):
        """Install every hook and the cache registry; restore on exit."""
        saved = []
        cache_cls = getattr(scoring, "LocalScoreCache", None)
        own_init = cache_cls is not None and "__init__" in vars(cache_cls)
        init = cache_cls.__init__ if cache_cls is not None else None

        def registering_init(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            self.caches.append(cache)

        self._missing = []
        try:
            for module, attr, name in HOOKS:
                fn = getattr(module, attr, None)
                if fn is None:
                    self._missing.append(f"{module.__name__}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            if cache_cls is not None:
                cache_cls.__init__ = registering_init
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            if cache_cls is not None and cache_cls.__init__ is registering_init:
                if own_init:
                    cache_cls.__init__ = init
                else:
                    del cache_cls.__init__

    def unobserved(self) -> list[str]:
        """Hooks that are missing from the library or recorded no span."""
        seen = self._fired | set(self.name_id)
        quiet = [name for name, nid in self._ids.items() if nid not in seen]
        return sorted(set(self._missing) | set(quiet))

    def spans(self) -> dict:
        """The recorded spans as arrays, ready to be written out."""
        names = sorted(self._ids, key=self._ids.get)
        return {"names": np.array(names),
                "name_id": np.asarray(self.name_id, dtype=np.int32),
                "parent": np.asarray(self.parent, dtype=np.int32),
                "start": np.asarray(self.start, dtype=np.float64),
                "end": np.asarray(self.end, dtype=np.float64)}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset
        (all but trace.overhead_frac, which needs an untraced run)."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
        self_time = dur - children
        parent_id = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

        def is_(*names):
            return np.isin(nid, [self._ids.get(n, -2) for n in names])

        def under(*names):
            return np.isin(parent_id, [self._ids.get(n, -2) for n in names])

        def total(mask, values=dur):
            return float(values[mask].sum())

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        score = is_("score_parent_sets")
        count_scoring = is_("count_stats") & under("score_parent_sets")
        count_k2 = is_("count_stats") & under("local_log_score", "k2_learn")
        decode = is_("decode_parents")
        hits = sum(getattr(c, "hits", 0) for c in self.caches)
        misses = sum(getattr(c, "misses", 0) for c in self.caches)
        score_s = total(score)
        count_s = total(count_scoring)
        decode_s = total(decode)
        unique = {(p, tuple(order), np.asarray(bits).tobytes())
                  for p, order, bits in self.pairs}
        comparison = is_("run_comparison")
        comparison_wall = total(comparison)
        return {
            "bayesnet.random_network_s": total(is_("random_network")),
            "bayesnet.ancestral_sample_s": total(is_("ancestral_sample")),
            "scoring.score_calls": int(score.sum()),
            "scoring.score_s": score_s,
            "scoring.cache_hits": hits,
            "scoring.cache_misses": misses,
            "scoring.hit_rate": ratio(hits, hits + misses),
            "scoring.cache_entries": sum(len(c) for c in self.caches),
            "scoring.count_stats_calls": int(count_scoring.sum()),
            "scoring.count_stats_s": count_s,
            "scoring.us_per_miss": ratio(count_s, misses, 1e6),
            "scoring.us_per_hit": ratio(score_s - count_s, hits, 1e6),
            "encoding.decode_calls": int(decode.sum()),
            "encoding.decode_s": decode_s,
            "encoding.us_per_decode": ratio(decode_s, int(decode.sum()), 1e6),
            "encoding.unique_pair_frac": ratio(len(unique), len(self.pairs)),
            "evolution.evaluations": sum(r.evaluations for t in self.traces
                                         for r in t),
            "evolution.select_s": total(is_("tournament_select")),
            "evolution.crossover_s": total(is_("cycle_crossover",
                                               "two_point_crossover")),
            "evolution.mutation_s": total(is_("bit_flip_mutation",
                                              "swap_mutation")),
            "evolution.replace_s": total(is_("elitist_replace")),
            "evolution.self_s": total(is_("evolve"), self_time),
            "evolution.gen_to_best": ratio(sum(_gen_to_best(t) for t in self.traces),
                                           len(self.traces)),
            "baselines.k2_local_scores": int(is_("local_log_score").sum()),
            "baselines.k2_count_stats_s": total(count_k2),
            "baselines.k2_self_s": total(is_("k2_learn"), self_time),
            "harness.runs": int((is_("evolve") & under("run_comparison")).sum()),
            "harness.self_s": total(comparison, self_time),
            "harness.cpu_per_wall": ratio(sum(self.cpu.values()), comparison_wall),
            "cli.self_s": total(is_("cli_main"), self_time),
        }


def _gen_to_best(records) -> int:
    """Generation at which a run first reached its final best score."""
    final = records[-1].best_score
    return next(r.generation for r in records if r.best_score == final)
