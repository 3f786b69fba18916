"""Span tracing installed from outside the package.

``Tracer.install`` replaces public functions, methods and imported names of
the ``ncsmode`` modules with wrappers that record one span per call: the
layer-qualified name, the enclosing span, and start and end clocks. Spans
stay in memory until ``write`` saves them. Self times are computed from the
spans afterwards: a span's duration minus the durations of the spans it
directly encloses.

A name a module imported from another (``filters.predict_prior`` is
``markov.predict_prior``) is patched in every module that calls it, since
each module looks it up in its own namespace.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from functools import cached_property


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name index, parent span index or -1, t0_ns, t1_ns)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._nid(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap ``owner.attr`` (a module or class attribute) as span ``name``."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(orig, cached_property):
            new = cached_property(self._wrap(name, orig.func, on_result))
            new.__set_name__(owner, attr)
        else:
            new = self._wrap(name, orig, on_result)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        nid = self._nid(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (nid, parent, t0, t1)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def install(self, nm) -> None:
        """Wrap the public surface of every layer of the package ``nm``."""
        cli, sim, model, markov, filters = nm.cli, nm.sim, nm.model, nm.markov, nm.filters
        self.patch(cli, "main", "cli.main")
        self.patch(cli, "load_config", "cli.load_config")
        self.patch(cli, "run_experiment", "cli.run_experiment")
        self.patch(cli, "aggregate", "metrics.aggregate")
        self.patch(nm.metrics, "aggregate", "metrics.aggregate")
        self.patch(sim, "simulate_trial", "sim.simulate_trial")
        for owner in (sim, model):
            self.patch(owner, "build_augmented", "model.build_augmented")
            self.patch(owner, "ss_to_arma", "model.ss_to_arma")
        self.patch(model.AugmentedModel, "mode_tables", "model.mode_tables")
        self.patch(sim, "sample_next", "markov.sample_next")
        self.patch(markov, "sample_next", "markov.sample_next")
        self.patch(filters, "predict_prior", "markov.predict_prior")
        self.patch(markov, "predict_prior", "markov.predict_prior")
        for fn in ("kf_predict", "kf_update", "alg1_predict_output", "alg2_predict",
                   "mode_posterior_update_log"):
            self.patch(filters, fn, f"filters.{fn}")

        def count_alg1(result):
            self.counters["alg1.steps"] += 1
            self.counters["alg1.updated"] += not result.fallback

        for cls in (filters.Alg1Estimator, filters.Alg2Estimator, filters.ImmEstimator):
            self.patch(cls, "__init__", f"filters.{cls.key}.init")
            self.patch(cls, "start", f"filters.{cls.key}.start")
            self.patch(cls, "step", f"filters.{cls.key}.step",
                       count_alg1 if cls.key == "alg1" else None)

    def durations(self) -> dict[str, list[int]]:
        """Inclusive span durations in ns, grouped by name."""
        out: dict[str, list[int]] = defaultdict(list)
        for nid, _, t0, t1 in self.spans:
            out[self.names[nid]].append(t1 - t0)
        return out

    def self_times(self) -> dict[str, int]:
        """Total self time in ns per span name."""
        own = [t1 - t0 for _, _, t0, t1 in self.spans]
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        totals: dict[str, int] = defaultdict(int)
        for (nid, _, _, _), ns in zip(self.spans, own):
            totals[self.names[nid]] += ns
        return totals

    def layer_self_times(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for name, ns in self.self_times().items():
            totals[name.split(".", 1)[0]] += ns
        return totals

    def root_ns(self) -> int:
        """Wall time covered by top-level spans."""
        return sum(t1 - t0 for _, parent, t0, t1 in self.spans if parent < 0)

    def write(self, path) -> None:
        """Save every span as one CSV line: index,parent,name,start_ns,end_ns."""
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            for i, (nid, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.names[nid]},{t0},{t1}\n")
