"""Spans around the public functions of each trendgram module.

The program carries no tracing of its own, so the benchmark wraps the
functions under the names their callers look them up by (mostly
`trendgram.cli.<name>`; `build_catalog` finds `evaluate` and
`render_plot` in `trendgram.trends`). Each wrapper appends one span
(name, start, end, parent span, run id) to an in-memory list; nothing is
written until the benchmark ends.

Counts are taken from arguments and return values after the span has
closed. That bookkeeping is itself recorded as a `trace.counts` span
under the caller, so it is charged to neither the callee nor the caller.
A span's self time is its duration minus the durations of its direct
children; the self times of one run add up to the run's root span.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import trendgram.cli
import trendgram.trends
from trendgram.ngrams import NGRAM_MAX  # the default `extract --nmax`, which the workloads use

LAYERS = ("ingest", "textprep", "ngrams", "frequency", "trends", "plotting", "cli")


def _count_parse(counts, args, kwargs, result):
    counts["ingest.diagnostics"] += len(result[1])


def _count_parse_bibtex(counts, args, kwargs, result):
    _count_parse(counts, args, kwargs, result)
    counts["ingest.parse_bibtex.bytes"] += len(args[0].encode("utf-8"))


def _count_merge(counts, args, kwargs, result):
    report = result[1]
    counts["ingest.entries_in"] += report.total_in
    counts["ingest.incomplete_removed"] += report.incomplete_removed
    counts["ingest.duplicates_removed"] += report.duplicates_removed
    counts["ingest.entries_out"] += report.total_out


def _count_sentences(counts, args, kwargs, result):
    counts["textprep.sentences"] += len(result)
    for sentence in result:
        tokens = len(sentence.tokens)
        counts["textprep.tokens"] += tokens
        counts["ngrams.windows"] += sum(max(tokens - n + 1, 0) for n in range(1, NGRAM_MAX + 1))


def _count_ngrams(counts, args, kwargs, result):
    counts["ngrams.records"] += len(result)
    counts["ngrams.windows_kept"] += sum(record.count for record in result)


def _count_write_records(counts, args, kwargs, result):
    if isinstance(args[1], str) and args[1] != "-":
        counts["ngrams.records_bytes"] += os.path.getsize(args[1])


def _count_read_records(counts, args, kwargs, result):
    counts["ngrams.read_records.rows"] += len(result)


_RANK_TRENDS = inspect.signature(trendgram.trends.rank_trends)


def _count_rank_trends(counts, args, kwargs, result):
    """The n-grams rank_trends computes a slope for: none when fewer than
    max(min_years, 2) years have length-n data, else those with enough
    total count."""
    bound = _RANK_TRENDS.bind(*args, **kwargs)
    bound.apply_defaults()
    table, n = bound.arguments["table"], bound.arguments["n"]
    min_support, min_years = bound.arguments["min_support"], bound.arguments["min_years"]
    if sum(1 for year in table.years if table.has_data(n, year)) < max(min_years, 2):
        return
    totals = Counter()
    for (record_n, ngram, _), count in table.counts.items():
        if record_n == n:
            totals[ngram] += count
    counts["trends.rank_trends.candidates"] += sum(1 for total in totals.values()
                                                   if total >= min_support)


def _count_plot(counts, args, kwargs, result):
    counts["plotting.svg_bytes"] += len(result.encode("utf-8"))


# (module, attribute, span name, count function)
TARGETS = (
    (trendgram.cli, "parse_bibtex", "ingest.parse_bibtex", _count_parse_bibtex),
    (trendgram.cli, "parse_csv", "ingest.parse_csv", _count_parse),
    (trendgram.cli, "parse_endnote", "ingest.parse_endnote", _count_parse),
    (trendgram.cli, "merge_dedup", "ingest.merge_dedup", _count_merge),
    (trendgram.cli, "write_corpus", "ingest.write_corpus", None),
    (trendgram.cli, "read_corpus", "ingest.read_corpus", None),
    (trendgram.cli, "entry_sentences", "textprep.entry_sentences", _count_sentences),
    (trendgram.cli, "count_ngrams", "ngrams.count_ngrams", _count_ngrams),
    (trendgram.cli, "write_records", "ngrams.write_records", _count_write_records),
    (trendgram.cli, "read_records", "ngrams.read_records", _count_read_records),
    (trendgram.cli, "top_ngrams", "ngrams.top_ngrams", None),
    (trendgram.cli, "build_table", "frequency.build_table", None),
    (trendgram.cli, "evaluate", "frequency.evaluate", None),
    (trendgram.trends, "evaluate", "frequency.evaluate", None),
    (trendgram.cli, "write_series_csv", "frequency.write_series", None),
    (trendgram.cli, "write_series_json", "frequency.write_series", None),
    (trendgram.cli, "render_plot", "plotting.render_plot", _count_plot),
    (trendgram.trends, "render_plot", "plotting.render_plot", _count_plot),
    (trendgram.cli, "rank_trends", "trends.rank_trends", _count_rank_trends),
    (trendgram.cli, "build_catalog", "trends.build_catalog", None),
)


class Tracer:
    """In-memory span recorder; `installed()` patches `TARGETS`."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.calls = defaultdict(Counter)  # run id -> span name -> calls
        self.counts = defaultdict(Counter)  # run id -> count name -> value
        self.run_id = 0
        self._stack = []

    def span(self, name, fn, count=None):
        """`fn` wrapped so that each call records a span named `name`."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            self.calls[self.run_id][name] += 1
            if count is not None:
                count(self.counts[self.run_id], args, kwargs, result)
                self.spans.append(("trace.counts", end, time.perf_counter(), parent, self.run_id))
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
        try:
            for module, attr, name, count in TARGETS:
                setattr(module, attr, self.span(name, getattr(module, attr), count))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)


def self_times(spans):
    """[(name, self seconds, run id)] in span order."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    return [(name, end - start - children[index], run)
            for index, (name, start, end, _, run) in enumerate(spans)]


SELF_TIMED = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS)) + ("cli.run",)

COUNTED = ("ingest.entries_in", "ingest.diagnostics", "ingest.incomplete_removed",
           "ingest.duplicates_removed", "ingest.entries_out", "textprep.sentences",
           "textprep.tokens", "ngrams.windows", "ngrams.windows_kept", "ngrams.records",
           "trends.rank_trends.candidates", "plotting.svg_bytes")


def pass_counts(tracer, run_ids):
    """Per traced pass, (counts, calls) summed over its commands."""
    totals = []
    for runs in run_ids:
        counts, calls = Counter(), Counter()
        for run in runs:
            counts.update(tracer.counts[run])
            calls.update(tracer.calls[run])
        totals.append((counts, calls))
    return totals


def layer_metrics(tracer, run_ids):
    """Per traced pass: self time per span and per layer; the median over
    passes. Counts follow from the inputs alone; the caller checks that
    every pass has the same, so the first pass's are reported."""
    pass_of = {run: index for index, runs in enumerate(run_ids) for run in runs}
    per_pass = [Counter() for _ in run_ids]
    for name, seconds, run in self_times(tracer.spans):
        if name != "trace.counts":
            per_pass[pass_of[run]][name] += seconds
            per_pass[pass_of[run]][name.split(".")[0]] += seconds

    def self_s(name):
        return statistics.median([times[name] for times in per_pass])

    counts, calls = pass_counts(tracer, run_ids)[0]
    metrics = {f"{name}.self_s": self_s(name) for name in SELF_TIMED}
    metrics.update({f"{layer}.self_s": self_s(layer) for layer in LAYERS if layer != "cli"})
    metrics.update({name: counts[name] for name in COUNTED})

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    metrics["ingest.parse_bibtex.mb_per_s"] = rate(counts["ingest.parse_bibtex.bytes"] / 1e6,
                                                   metrics["ingest.parse_bibtex.self_s"])
    metrics["ngrams.keep_ratio"] = rate(counts["ngrams.windows_kept"], counts["ngrams.windows"])
    metrics["ngrams.records_mb"] = counts["ngrams.records_bytes"] / 1e6
    metrics["ngrams.read_records.rows_per_s"] = rate(counts["ngrams.read_records.rows"],
                                                     metrics["ngrams.read_records.self_s"])
    metrics["frequency.evaluate.calls"] = calls["frequency.evaluate"]
    metrics["plotting.plots"] = calls["plotting.render_plot"]
    return metrics


UNITS = {"ingest.parse_bibtex.mb_per_s": "MB/s", "ngrams.keep_ratio": "ratio",
         "ngrams.records_mb": "MB", "ngrams.read_records.rows_per_s": "1/s",
         "plotting.svg_bytes": "bytes", "cli.startup_s": "s", "trace.overhead_s": "s"}


def unit_of(name):
    return UNITS.get(name, "s" if name.endswith("self_s") else "count")
