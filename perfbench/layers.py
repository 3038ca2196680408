"""Per-layer metrics: the workload driven in-process, with spans.

The package is imported into this interpreter and ``hardy_means.cli.main``
is called once per op.  Three things happen in order:

1. Two untraced passes.  The first fills lazy caches, records each prefix
   loop with the number of KahanSum.add calls it makes, and its outputs
   are checked; the second gives the in-process wall time.
2. A traced pass: wrappers replace the public functions of each module at
   the names their callers look them up (``cli`` imports
   ``sharpness_constant_sweep`` by name, ``classification_table`` calls the
   ``classify`` global of its module, and so on).  Each wrapper records a
   span (name, start, end, parent) and the counts of its layer.  Its
   outputs must equal the untraced ones.  Traced minus untraced wall time
   is the tracing overhead.
3. Replays of the per-term layers, which a timer on every call would
   distort: each prefix loop the first pass recorded is replayed through
   the evaluator's ``push`` alone, then ``family.terms`` alone, then
   ``KahanSum.add`` alone, as many times as the program called it.

Start-up cost is measured in fresh interpreters.  Nothing is patched
inside the package's files; spans inside the package are left to the
package itself.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from oracles import CheckError
from workloads import Op, Outcome, judge

# The evaluator classes of the prefix route at this commit; one count each.
PREFIX_EVALUATORS = ("PowerMeanPrefix", "PairGeometricMeanPrefix", "SymmetricFunctionPrefix", "BufferedPrefix")
ROUTES = ("Exact", "FastSymmetric", "Degenerate", "MonteCarlo")
STARTUP_REPEATS = 3

_NUMPY_PROBE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
_CLI_PROBE = (
    "import sys, time; t = time.perf_counter(); import hardy_means.cli; "
    "print(time.perf_counter() - t, len(sys.modules))"
)


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts recorded by wrappers around the program's functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self._thread = threading.get_ident()

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(span, args, kwargs, result)`` then
        records counts and may rename the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, before):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before(args, kwargs)
            span = self._open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def patch(self, wrapper, *places) -> None:
        """Bind ``wrapper`` at ``(module, attribute)`` for every place."""
        for module, attr in places:
            self._patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def seconds(self, name: str) -> float:
        """Time inside spans called ``name``, not counting such spans nested
        in one another."""
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and parent.name != name:
                parent = parent.parent
            if parent is None:
                total += span.seconds
        return total

    def self_seconds(self, name: str) -> float:
        """Time inside spans called ``name`` outside their direct children."""
        children = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and span.parent.name == name:
                children[id(span.parent)] += span.seconds
        return sum(span.seconds - children[id(span)] for span in self.spans if span.name == name)


def install(tracer: Tracer, m: dict) -> None:
    """Wrap every layer the per-layer metrics name.  ``m`` maps module
    names to the imported modules."""
    cli, cmn, hardy, ver = m["cli"], m["cmn_means"], m["hardy"], m["verification"]
    counts = tracer.counts

    def add_bytes(span, args, kwargs, text):
        counts["format.bytes"] += len(text.encode("utf-8"))

    tracer.patch(tracer.wrap("format.canonical_json", cli.canonical_json, add_bytes), (cli, "canonical_json"))
    tracer.patch(tracer.wrap("format.rows_to_csv", cli.rows_to_csv, add_bytes), (cli, "rows_to_csv"))

    def count(name):
        def after(span, args, kwargs, result):
            counts[name] += 1

        return after

    tracer.patch(
        tracer.wrap("classify", m["classify"].classify, count("classify.calls")),
        (cli, "classify"), (m["classify"], "classify"),
    )
    tracer.patch(
        tracer.wrap("power_means.power_mean", cmn.power_mean, count("power_means.power_mean.calls")),
        (cmn, "power_mean"), (ver, "power_mean"),
    )

    def route(span, args, kwargs, report):
        counts[f"cmn_means.route.{report.method.value}"] += 1
        if report.method.value == "FastSymmetric":
            span.name = "cmn_means.closed_form"
            params, values = args
            counts["cmn_means.esp_updates"] += len(values) * params.k

    tracer.patch(
        tracer.wrap("cmn_means.cmn_mean_fast", cmn.cmn_mean_fast, route),
        (cli, "cmn_mean_fast"), (cmn, "cmn_mean_fast"), (ver, "cmn_mean_fast"), (hardy, "cmn_mean_fast"),
    )

    def sampled(span, args, kwargs, report):
        counts["cmn_means.route.MonteCarlo"] += 1
        counts["cmn_means.cmn_mean_sampled.draws"] += report.samples

    tracer.patch(tracer.wrap("cmn_means.cmn_mean_sampled", cmn.cmn_mean_sampled, sampled), (cli, "cmn_mean_sampled"))

    def subsets(span, args, kwargs, logs):
        counts["cmn_means.subset_log_means.subsets"] += len(logs)

    tracer.patch(tracer.wrap("cmn_means.subset_log_means", cmn.subset_log_means, subsets), (cmn, "subset_log_means"))
    tracer.patch(tracer.wrap("cmn_means.power_mean_of_logs", cmn.power_mean_of_logs), (cmn, "power_mean_of_logs"))

    map_ordered = tracer.wrap("parallel.map_ordered", cmn.map_ordered)

    def counted_map(fn, items, threads=None):
        counts["parallel.map_ordered.calls"] += 1
        workers = m["_parallel"].thread_count() if threads is None else threads
        counts["parallel.map_ordered.workers"] = max(counts["parallel.map_ordered.workers"], workers)

        def each(source):
            for item in source:
                counts["parallel.map_ordered.items"] += 1
                yield item

        return map_ordered(fn, each(items), threads)

    tracer.patch(counted_map, (cmn, "map_ordered"))

    def sequence(args, kwargs):
        counts["hardy.iter_hardy_checkpoints.terms"] += args[2]

    tracer.patch(
        tracer.wrap_generator("hardy.iter_hardy_checkpoints", hardy.iter_hardy_checkpoints, sequence),
        (cli, "iter_hardy_checkpoints"), (hardy, "iter_hardy_checkpoints"),
    )

    def evaluator(span, args, kwargs, result):
        counts[f"hardy.prefix_route.{type(result).__name__}"] += 1

    tracer.patch(
        tracer.wrap("hardy.make_prefix_evaluator", hardy.make_prefix_evaluator, evaluator),
        (hardy, "make_prefix_evaluator"),
    )

    def sweep(span, args, kwargs, estimates):
        counts["hardy.sharpness_constant_sweep.sequences"] += len(estimates)
        counts["hardy.sharpness_constant_sweep.terms"] += len(estimates) * args[1]

    tracer.patch(
        tracer.wrap("hardy.sharpness_constant_sweep", cli.sharpness_constant_sweep, sweep),
        (cli, "sharpness_constant_sweep"),
    )
    tracer.patch(
        tracer.wrap("hardy.sharpness_limit_curve", ver.sharpness_limit_curve), (ver, "sharpness_limit_curve")
    )
    tracer.patch(
        tracer.wrap("verification.run_verification", cli.run_verification), (cli, "run_verification")
    )


def call_main(main, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return Outcome(code, out.getvalue(), err.getvalue())


def run_pass(ops: list[Op], main) -> list[tuple[float, Outcome]]:
    results = []
    for op in ops:
        start = time.perf_counter()
        outcome = call_main(main, op.argv)
        results.append((time.perf_counter() - start, outcome))
    return results


def record_prefix_loops(m: dict) -> tuple[Tracer, list]:
    """Patches for the warm pass: every prefix loop the workload runs, as
    (mean, family, n, KahanSum.add calls made by the loop and its evaluator),
    counted by a KahanSum subclass bound where the prefix module looks it up."""
    hardy = m["hardy"]
    kahan_cls = m["_summation"].KahanSum
    original = hardy.iter_hardy_checkpoints
    loops = []
    adds = [0]

    class CountingKahanSum(kahan_cls):
        __slots__ = ()

        def add(self, term):
            adds[0] += 1
            kahan_cls.add(self, term)

    def recorded(mean, family, n, checkpoints=None, *, allow_nonsummable=False):
        before = adds[0]
        try:
            yield from original(mean, family, n, checkpoints, allow_nonsummable=allow_nonsummable)
        finally:
            loops.append((mean, family, n, adds[0] - before))

    patcher = Tracer()
    patcher.patch(CountingKahanSum, (hardy, "KahanSum"))
    patcher.patch(recorded, (m["cli"], "iter_hardy_checkpoints"), (hardy, "iter_hardy_checkpoints"))
    return patcher, loops


def replay_prefix_layers(loops, m: dict) -> Counter:
    """Time family.terms, the evaluator push and KahanSum.add alone, each on
    the terms of every prefix loop the workload ran."""
    hardy = m["hardy"]
    kahan_cls = m["_summation"].KahanSum
    refused = (m["errors"].DomainError, m["errors"].CapacityError)
    out = Counter()

    for mean, family, n, adds in loops:
        terms = list(family.terms(n))
        push = hardy.make_prefix_evaluator(mean).push
        start = time.perf_counter()
        try:
            for a in terms:
                push(a)
            was_refused = False
        except refused:
            was_refused = True
        out["hardy.prefix_push.s"] += time.perf_counter() - start
        if was_refused:
            # the known fault: replay only the terms the program consumed
            terms = terms[:_pushes_until_refused(hardy.make_prefix_evaluator(mean), terms, refused)]

        start = time.perf_counter()
        for _ in itertools.islice(family.terms(n), len(terms)):
            pass
        out["hardy.family_terms.s"] += time.perf_counter() - start
        out["hardy.family_terms.count"] += len(terms)

        out["summation.kahan.adds"] += adds
        add = kahan_cls().add
        rounds, rest = divmod(adds, len(terms))
        start = time.perf_counter()
        for _ in range(rounds):
            for x in terms:
                add(x)
        for x in terms[:rest]:
            add(x)
        out["summation.kahan.s"] += time.perf_counter() - start
    return out


def _pushes_until_refused(evaluator, terms, refused) -> int:
    for i, a in enumerate(terms):
        try:
            evaluator.push(a)
        except refused:
            return i
    return len(terms)


def startup_metrics(env: dict) -> dict:
    """Import costs in fresh interpreters: numpy alone, and hardy_means.cli
    with everything it pulls in."""
    numpy_s, cli_s, modules = [], [], []
    for _ in range(STARTUP_REPEATS):
        numpy_s.append(float(_probe(_NUMPY_PROBE, env)[0]))
        seconds, count = _probe(_CLI_PROBE, env)
        cli_s.append(float(seconds))
        modules.append(int(count))
    return {
        "startup.import_numpy_s": (statistics.median(numpy_s), "s"),
        "startup.import_cli_s": (statistics.median(cli_s), "s"),
        "startup.modules": (statistics.median(modules), "count"),
    }


def _probe(code: str, env: dict) -> list[str]:
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise CheckError(f"start-up probe failed: {done.stderr.strip()[-300:]}")
    return done.stdout.split()


def _throughput(ops, results, attr: str) -> float:
    work = seconds = 0.0
    for op, (wall, outcome) in zip(ops, results):
        if getattr(op, attr) and outcome.returncode == 0:
            work += getattr(op, attr)
            seconds += wall
    return work / seconds if seconds else 0.0


def run(ops: list[Op], src, env: dict) -> tuple[int, int, dict]:
    """(attempted, failed, per-layer metrics) of one traced pass."""
    os.environ.pop("HARDY_MEANS_THREADS", None)
    sys.path.insert(0, str(src))
    names = ("cli", "classify", "cmn_means", "hardy", "verification", "_parallel", "_summation", "errors")
    m = {name: importlib.import_module(f"hardy_means.{name}") for name in names}

    # The first pass fills the interpreter's lazy caches, records the prefix
    # loops for the replays and is checked; the second is the untraced
    # reference for the tracing overhead.
    patcher, loops = record_prefix_loops(m)
    try:
        warm = run_pass(ops, m["cli"].main)
    finally:
        patcher.restore()
    verdicts = [judge(op, outcome) for op, (_, outcome) in zip(ops, warm)]
    untraced = run_pass(ops, m["cli"].main)

    tracer = Tracer()
    install(tracer, m)
    try:
        traced = run_pass(ops, tracer.wrap("cli.main", m["cli"].main))
    finally:
        tracer.restore()
    for op, (_, first), (_, again), (_, traced_again) in zip(ops, warm, untraced, traced):
        if not first == again == traced_again:
            raise CheckError(f"{op.label}: output differs between in-process passes")

    counts = tracer.counts + replay_prefix_layers(loops, m)
    untraced_s = sum(wall for wall, _ in untraced)
    traced_s = sum(wall for wall, _ in traced)

    metrics = startup_metrics(env)
    metrics["cli.main.self_s"] = (tracer.self_seconds("cli.main"), "s")
    seconds = {
        "format.canonical_json_s": "format.canonical_json",
        "format.rows_to_csv_s": "format.rows_to_csv",
        "classify.s": "classify",
        "power_means.power_mean.s": "power_means.power_mean",
        "cmn_means.subset_log_means.s": "cmn_means.subset_log_means",
        "cmn_means.cmn_mean_sampled.s": "cmn_means.cmn_mean_sampled",
        "cmn_means.closed_form.s": "cmn_means.closed_form",
        "cmn_means.power_mean_of_logs.s": "cmn_means.power_mean_of_logs",
        "parallel.map_ordered.s": "parallel.map_ordered",
        "hardy.iter_hardy_checkpoints.s": "hardy.iter_hardy_checkpoints",
        "hardy.sharpness_constant_sweep.s": "hardy.sharpness_constant_sweep",
        "hardy.sharpness_limit_curve.s": "hardy.sharpness_limit_curve",
        "verification.run_verification.s": "verification.run_verification",
    }
    for metric, span_name in seconds.items():
        metrics[metric] = (tracer.seconds(span_name), "s")
    for metric in (
        "format.bytes", "classify.calls", "power_means.power_mean.calls",
        *(f"cmn_means.route.{r}" for r in ROUTES),
        "cmn_means.subset_log_means.subsets", "cmn_means.cmn_mean_sampled.draws",
        "parallel.map_ordered.calls", "parallel.map_ordered.items", "parallel.map_ordered.workers",
        "hardy.family_terms.count", *(f"hardy.prefix_route.{c}" for c in PREFIX_EVALUATORS),
        "hardy.iter_hardy_checkpoints.terms", "hardy.sharpness_constant_sweep.sequences",
        "hardy.sharpness_constant_sweep.terms", "summation.kahan.adds",
    ):
        metrics[metric] = (counts[metric], "bytes" if metric == "format.bytes" else "count")
    metrics["cmn_means.esp_updates"] = (counts["cmn_means.esp_updates"], "count-computed")
    for metric in ("hardy.family_terms.s", "hardy.prefix_push.s", "summation.kahan.s"):
        metrics[metric] = (counts[metric], "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["prefix_terms_per_s"] = (_throughput(ops, untraced, "prefix_terms"), "terms/s")
    metrics["subset_means_per_s"] = (_throughput(ops, untraced, "subset_means"), "subsets/s")
    return len(ops), verdicts.count(False), metrics
