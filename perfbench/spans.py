"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of pitman_lab from the
outside: no span lives inside the program.  A function is replaced in every
pitman_lab module namespace that holds it by name (``representation.stats``
as well as ``paths.stats``), so calls between modules are seen too.  Each
span keeps its name, start, end and parent in typed integer arrays; nothing
is written until :meth:`SpanRecorder.dump` at the end.

Self time of a span is its duration minus the durations of its child spans.
The program is single-threaded, so children never overlap and that
difference is exactly the part of the interval no child covers.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np


class _CountingStream:
    """Forwards writes to ``inner`` and counts the bytes written."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span_wrapper(self, name, fn, name_of=None, count=None):
        """Wrap ``fn`` in a span.  ``name_of(bound_args)`` may refine the span
        name from the arguments; ``count(bound_args, result)`` may add to
        counters."""
        sig = inspect.signature(fn) if (name_of or count) else None

        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            label = name_of(bound) if name_of else name
            self.counts[label + ".calls"] += 1
            idx = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count:
                count(self.counts, bound, result)
            return result

        return wrapper

    def call_counter(self, name, fn):
        """Count calls without a span: for leaf functions called so often
        that a span would cost more than the call."""
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def yield_counter(self, name, fn):
        """Count the items a generator function yields."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def output_counter(self, name, fn):
        """Span that also counts the bytes ``fn`` writes to stdout."""
        inner = self.span_wrapper(name, fn)

        def wrapper(*args, **kwargs):
            stream = _CountingStream(sys.stdout)
            sys.stdout = stream
            try:
                return inner(*args, **kwargs)
            finally:
                sys.stdout = stream.inner
                self.counts[name + ".output_bytes"] += stream.bytes

        return wrapper

    # -- installing -----------------------------------------------------------

    def patch_function(self, module, attr, make):
        """Replace ``module.attr`` everywhere pitman_lab holds it by name."""
        original = getattr(module, attr)
        wrapped = make(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pitman_lab" or modname.startswith("pitman_lab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def mark(self) -> tuple:
        """Position to pass to :meth:`summary` as the start of a window."""
        return len(self.name), Counter(self.counts)

    def summary(self, since: tuple) -> tuple[dict, dict]:
        """Self seconds per span name and counter totals since ``since``."""
        first, counts_before = since
        names = np.frombuffer(self.name, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:]
        dur = (np.frombuffer(self.end, dtype=np.int64)[first:]
               - np.frombuffer(self.start, dtype=np.int64)[first:]).astype(np.float64)
        child = np.zeros_like(dur)
        inside = parent >= first
        np.add.at(child, parent[inside] - first, dur[inside])
        self_ns = np.bincount(names, weights=dur - child, minlength=len(self.names))
        self_s = {n: float(self_ns[i]) / 1e9 for i, n in enumerate(self.names)}
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return self_s, dict(counts)

    def dump(self, path):
        """Write every span (name, start, end, parent index) to ``path``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def install(recorder: SpanRecorder):
    """Wrap the layer boundaries whose metrics the benchmark reports."""
    import pitman_lab.cli as cli
    import pitman_lab.conditioning as conditioning
    import pitman_lab.exact as exact
    import pitman_lab.paths as paths
    import pitman_lab.processes as processes
    import pitman_lab.representation as representation
    import pitman_lab.sampling as sampling
    import pitman_lab.scaling as scaling
    import pitman_lab.transform as transform

    r = recorder
    span = lambda name, **kw: (lambda fn: r.span_wrapper(name, fn, **kw))  # noqa: E731
    calls = lambda name: (lambda fn: r.call_counter(name, fn))  # noqa: E731

    def route_name(args):
        return f"processes.chain_increment_law.{args['route']}"

    def count_normals(counts, args, result):
        n_steps = max(1, math.ceil(args["steps"] * float(np.max(list(args["t_grid"])))))
        counts["scaling.limit_process_sample.normals"] += args["n"] * n_steps

    def count_chain_steps(counts, args, result):
        counts["sampling.sample_chain.steps"] += args["t"] * args["n"]

    def count_accepts(counts, args, result):
        counts["conditioning.rejection_oracle.accepted"] += result["accepted"]
        counts["conditioning.rejection_oracle.draws"] += result["n_samples"]

    r.patch_function(paths, "enumerate_paths",
                     lambda fn: r.yield_counter("paths.enumerate_paths.paths", fn))
    r.patch_function(paths, "stats", span("paths.stats"))
    r.patch_function(processes, "chain_increment_law",
                     span("processes.chain_increment_law", name_of=route_name))
    r.patch_function(processes, "chain_transition", calls("processes.chain_transition"))
    r.patch_function(processes, "walk_path_prob", calls("processes.walk_path_prob"))
    r.patch_method(processes.InitialLaw, "pmf_float", calls("processes.pmf_float"))
    r.patch_method(processes.InitialLaw, "truncation_point", span("processes.truncation_point"))
    r.patch_method(processes.DistTable, "max_abs_diff", span("representation.compare"))
    r.patch_function(exact, "tail_sum_ratio", span("exact.tail_sum_ratio"))
    r.patch_function(exact, "q_bracket", calls("exact.q_bracket"))
    r.patch_function(transform, "preimage_member", span("transform.preimage_member"))
    r.patch_function(transform, "tropical_identities_batch",
                     span("transform.tropical_identities_batch"))
    r.patch_function(representation, "rhs_law_enumeration",
                     span("representation.rhs_law_enumeration"))
    r.patch_function(representation, "rhs_law_table_formula",
                     span("representation.rhs_law_table_formula"))
    r.patch_method(representation.LevelLaw, "pmf", span("representation.level_law.pmf"))
    r.patch_method(representation.LevelLaw, "tail", span("representation.level_law.tail"))
    r.patch_function(conditioning, "conditioned_walk_law",
                     span("conditioning.conditioned_walk_law"))
    r.patch_function(conditioning, "rejection_oracle",
                     span("conditioning.rejection_oracle", count=count_accepts))
    r.patch_function(scaling, "continuity_check", span("scaling.continuity_check"))
    r.patch_function(scaling, "limit_process_sample",
                     span("scaling.limit_process_sample", count=count_normals))
    r.patch_method(scaling.LimitLevelLaw, "cdf", span("scaling.level_cdf"))
    r.patch_method(scaling.LimitLevelLaw, "ppf", span("scaling.level_ppf"))
    r.patch_function(sampling, "sample_chain",
                     span("sampling.sample_chain", count=count_chain_steps))
    r.patch_function(sampling, "ks_distance", span("sampling.ks_distance"))
    r.patch_function(cli, "main", lambda fn: r.output_counter("cli.main", fn))


def layer_metrics(self_s: dict, counts: dict) -> dict:
    """The per-layer metrics, by name, from one window of spans."""
    t = lambda name: self_s.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731
    draws = c("conditioning.rejection_oracle.draws")
    return {
        "paths.enumerate_paths.paths": (c("paths.enumerate_paths.paths"), "count"),
        "paths.stats.calls": (c("paths.stats.calls"), "count"),
        "paths.stats.self_s": (t("paths.stats"), "s"),
        "processes.chain_increment_law.formula.self_s":
            (t("processes.chain_increment_law.formula"), "s"),
        "processes.chain_increment_law.product.self_s":
            (t("processes.chain_increment_law.product"), "s"),
        "processes.chain_transition.calls": (c("processes.chain_transition.calls"), "count"),
        "processes.walk_path_prob.calls": (c("processes.walk_path_prob.calls"), "count"),
        "transform.preimage_member.calls": (c("transform.preimage_member.calls"), "count"),
        "transform.preimage_member.self_s": (t("transform.preimage_member"), "s"),
        "representation.rhs_law_enumeration.self_s":
            (t("representation.rhs_law_enumeration"), "s"),
        "representation.rhs_law_table_formula.self_s":
            (t("representation.rhs_law_table_formula"), "s"),
        "representation.compare.self_s": (t("representation.compare"), "s"),
        "conditioning.conditioned_walk_law.self_s": (t("conditioning.conditioned_walk_law"), "s"),
        "exact.tail_sum_ratio.calls": (c("exact.tail_sum_ratio.calls"), "count"),
        "exact.tail_sum_ratio.self_s": (t("exact.tail_sum_ratio"), "s"),
        "exact.q_bracket.calls": (c("exact.q_bracket.calls"), "count"),
        "processes.pmf_float.calls": (c("processes.pmf_float.calls"), "count"),
        "processes.truncation_point.self_s": (t("processes.truncation_point"), "s"),
        "representation.level_law.pmf.calls": (c("representation.level_law.pmf.calls"), "count"),
        "representation.level_law.tail.calls": (c("representation.level_law.tail.calls"), "count"),
        "representation.level_law.self_s":
            (t("representation.level_law.pmf") + t("representation.level_law.tail"), "s"),
        "scaling.continuity_check.self_s": (t("scaling.continuity_check"), "s"),
        "scaling.limit_process_sample.self_s": (t("scaling.limit_process_sample"), "s"),
        "scaling.limit_process_sample.normals":
            (c("scaling.limit_process_sample.normals"), "count"),
        "scaling.level_cdf.calls": (c("scaling.level_cdf.calls"), "count"),
        "scaling.level_cdf.self_s": (t("scaling.level_cdf"), "s"),
        "scaling.level_ppf.self_s": (t("scaling.level_ppf"), "s"),
        "sampling.sample_chain.self_s": (t("sampling.sample_chain"), "s"),
        "sampling.sample_chain.steps": (c("sampling.sample_chain.steps"), "count"),
        "sampling.ks_distance.self_s": (t("sampling.ks_distance"), "s"),
        "transform.tropical_identities_batch.self_s":
            (t("transform.tropical_identities_batch"), "s"),
        "conditioning.rejection_oracle.self_s": (t("conditioning.rejection_oracle"), "s"),
        "conditioning.rejection_oracle.accept_ratio":
            (c("conditioning.rejection_oracle.accepted") / draws if draws else 0.0, "ratio"),
        "conditioning.rejection_oracle.draws": (draws, "count"),
        "cli.main.self_s": (t("cli.main"), "s"),
        "cli.output_bytes": (c("cli.main.output_bytes"), "bytes"),
    }
