"""Turn bibliographic metadata exports into per-year n-gram frequency
series, trend queries, and rising/falling trend rankings.

The public names below load their module on first use (PEP 562), so
`import trendgram` loads no stage and each command loads only its own.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "errors": ("IngestError", "QueryError", "RecordsError", "SlopeError", "TrendgramError"),
    "frequency": ("FrequencySeries", "Query", "QuerySeries", "SeriesPoint", "evaluate", "freq",
                  "freq_list", "parse_query", "query_lengths", "write_series_csv",
                  "write_series_json"),
    "ingest": ("Diagnostic", "Entry", "MergeReport", "filter_incomplete", "merge_dedup",
               "normalized_title", "parse_bibtex", "parse_csv", "parse_endnote", "read_corpus",
               "write_corpus"),
    "ngrams": ("FrequencyTable", "NgramRecord", "Stoplist", "build_table", "count_ngrams",
               "ngrams_of", "passes_stopword_rule", "read_records", "read_table", "top_ngrams",
               "write_records"),
    "plotting": ("render_plot",),
    "textprep": ("Sentence", "entry_sentences", "remove_articles", "split_sentences", "tokenize"),
    "trends": ("TrendEntry", "build_catalog", "rank_trends", "trend_slope"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULES:  # a stage module itself, such as `trendgram.ngrams`
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_MODULES))
