"""Defaults, bounds and rules that the stages share with the command-line parser.

This module imports nothing, so building the parser loads no stage. The
stages import the names they use from here.
"""

# ingest: the publication years kept.
DEFAULT_YEAR_RANGE = (2000, 2014)

# ingest: the entry fields a CSV mapping may name; title and year are required.
CSV_FIELDS = ("title", "abstract", "keywords", "year", "authors")

# ngrams: the longest n-gram counted.
NGRAM_MAX = 4

# trends: ranking thresholds and the number of catalog plots.
DEFAULT_MIN_SUPPORT = 30
DEFAULT_MIN_YEARS = 5
DEFAULT_CATALOG_LIMIT = 800


def csv_mapping_problem(mapping):
    """What is wrong with the fields `mapping` names, or None."""
    if unknown := sorted(set(mapping) - set(CSV_FIELDS)):
        return (f"unknown field(s) in CSV mapping: {', '.join(unknown)}"
                f" (fields are {', '.join(CSV_FIELDS)})")
    for field in ("title", "year"):
        if field not in mapping:
            return f"CSV mapping must include '{field}'"
    return None
