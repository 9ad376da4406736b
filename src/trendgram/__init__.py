"""Turn bibliographic metadata exports into per-year n-gram frequency
series, trend queries, and rising/falling trend rankings.

The public names below load their module on first use (PEP 562), so
`import trendgram` loads no stage and each command loads only its own;
`cli` and `trends` bind their stage names from `_MODULES` the same way.
The count table and the records reader are the `table` stage, which
the commands that read records load; only `extract` loads `ngrams`,
which counts n-grams and writes records.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "errors": ("IngestError", "QueryError", "RecordsError", "TrendgramError"),
    "frequency": ("FrequencySeries", "Query", "QuerySeries", "SeriesPoint", "evaluate", "freq",
                  "freq_list", "parse_query", "query_ngrams", "write_series_csv",
                  "write_series_json"),
    "ingest": ("Diagnostic", "Entry", "MergeReport", "filter_incomplete", "merge_dedup",
               "normalized_title", "parse_bibtex", "parse_csv", "parse_endnote", "read_corpus",
               "write_corpus"),
    "ngrams": ("Stoplist", "count_ngrams", "token_runs", "write_records"),
    "plotting": ("render_plot",),
    "table": ("FrequencyTable", "NgramRecord", "Prefix", "build_table", "read_records",
              "read_table", "top_ngrams"),
    "textprep": ("Sentence", "entry_sentences", "remove_articles", "split_sentences", "tokenize"),
    "trends": ("TrendEntry", "build_catalog", "rank_trends"),
}
__all__ = sorted(name for names in _MODULES.values() for name in names)


def _bind(namespace, *modules):
    """Bind in `namespace` the names `_MODULES` lists for the stage
    `modules`, importing each; a name already set, such as a wrapper
    patched in, is kept."""
    for module in modules:
        stage = import_module(f"{__name__}.{module}")
        for name in _MODULES[module]:
            namespace.setdefault(name, getattr(stage, name))


def _module_getattr(namespace):
    """A PEP 562 `__getattr__` for the module whose globals are
    `namespace`: a public name is bound there, with the other names of
    its stage module, on first access."""

    def __getattr__(name):
        for module, names in _MODULES.items():
            if name in names:
                _bind(namespace, module)
                return namespace[name]
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    return __getattr__


_public_name = _module_getattr(globals())


def __getattr__(name):
    if name in _MODULES:  # a stage module itself, such as `trendgram.ngrams`
        return import_module(f"{__name__}.{name}")
    return _public_name(name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_MODULES))
