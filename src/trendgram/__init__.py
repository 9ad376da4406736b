"""Turn bibliographic metadata exports into per-year n-gram frequency
series, trend queries, and rising/falling trend rankings."""

from .errors import IngestError, QueryError, RecordsError, SlopeError, TrendgramError
from .frequency import (FrequencySeries, Query, QuerySeries, SeriesPoint,
                        evaluate, freq, freq_list, parse_query, query_lengths,
                        write_series_csv, write_series_json)
from .ingest import (Diagnostic, Entry, MergeReport, filter_incomplete,
                     merge_dedup, normalized_title, parse_bibtex, parse_csv,
                     parse_endnote, read_corpus, write_corpus)
from .ngrams import (FrequencyTable, NgramRecord, Stoplist, build_table,
                     count_ngrams, ngrams_of, passes_stopword_rule,
                     read_records, read_table, top_ngrams, write_records)
from .plotting import render_plot
from .textprep import (Sentence, entry_sentences, remove_articles,
                       split_sentences, tokenize)
from .trends import TrendEntry, build_catalog, rank_trends, trend_slope

__version__ = "0.1.0"
