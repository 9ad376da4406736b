"""Defaults and bounds that the stages share with the command-line parser.

This module imports nothing, so building the parser loads no stage. The
stages import the names they use from here.
"""

# ingest: the publication years kept.
DEFAULT_YEAR_RANGE = (2000, 2014)

# ngrams: the longest n-gram counted.
NGRAM_MAX = 4

# trends: ranking thresholds and the number of catalog plots.
DEFAULT_MIN_SUPPORT = 30
DEFAULT_MIN_YEARS = 5
DEFAULT_CATALOG_LIMIT = 800
