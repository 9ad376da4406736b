"""Command-line driver wiring ingest -> extract -> query/top/catalog/trends.

Each stage reads and writes plain files so intermediate artifacts
(corpus.csv, records.csv) stay inspectable. Diagnostics go to standard
error; data goes to standard output or the `-o` target. Exit status is
0 on success, 1 on a usage error, 2 on a data error, 130 when `main`
is interrupted with Ctrl-C, 141 when its output was closed early and
143 when `main` gets SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import _bind, _module_getattr
from ._io import location, open_for_write, read_text
from ._limits import (DEFAULT_CATALOG_LIMIT, DEFAULT_MIN_SUPPORT, DEFAULT_MIN_YEARS,
                      DEFAULT_YEAR_RANGE, NGRAM_MAX)
from .errors import IngestError, TrendgramError

# The stage functions a command calls are bound as globals of this module
# when it loads their stages, so no command loads a stage it does not run.
# Every public name of the package resolves here, also before any command
# has run: bench/tracing.py wraps stage functions as `trendgram.cli.<name>`,
# and a wrapper patched in is the one the command calls.
def _load(*modules):
    _bind(globals(), *modules)


__getattr__ = _module_getattr(globals())


STOPLIST_ENV = "TRENDGRAM_STOPLIST"

# The exit status of a command whose output was closed before it ended,
# as a shell reports a process killed by SIGPIPE: 128 + 13.
_CLOSED_OUTPUT = 141

# The five demonstration queries plotted by `trendgram demo`.
DEMO_QUERIES = (
    "case study, experiment, review+survey",
    "static analysis, dynamic analysis",
    "feature location, visualization",
    "program slicing, clone detection",
    "legacy, open source",
)


class UsageError(Exception):
    """Bad command line; maps to exit status 1."""

    def __init__(self, usage, message):
        super().__init__(message)
        self.usage = usage


class _Terminated(BaseException):
    """Raised by `main` on SIGTERM, so that the cleanup that runs for
    Ctrl-C runs for it too."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(self.format_usage(), f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="trendgram",
                     description="N-gram trend analysis over bibliographic metadata exports.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("ingest", help="parse exports into the canonical corpus CSV")
    p.add_argument("--bibtex", action="append", default=[], metavar="FILE")
    p.add_argument("--csv", action="append", default=[], metavar="FILE")
    p.add_argument("--csv-map", action="append", default=[], metavar="FIELD=COLUMN",
                   help="column mapping for --csv files; replaces the IEEE default")
    p.add_argument("--endnote", action="append", default=[], metavar="FILE")
    p.add_argument("--year-min", type=int, default=DEFAULT_YEAR_RANGE[0])
    p.add_argument("--year-max", type=int, default=DEFAULT_YEAR_RANGE[1])
    p.add_argument("-o", "--output", required=True, metavar="FILE",
                   help="corpus CSV destination ('-' for stdout)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("extract", help="turn a corpus into n-gram records")
    p.add_argument("-i", "--input", required=True, metavar="CORPUS")
    p.add_argument("-o", "--output", required=True, metavar="RECORDS",
                   help="records CSV destination ('-' for stdout)")
    p.add_argument("--stoplist", metavar="FILE",
                   help=f"stopword list (default: ${STOPLIST_ENV} or the bundled list)")
    p.add_argument("--nmax", type=int, choices=range(1, NGRAM_MAX + 1), default=NGRAM_MAX)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("query", help="evaluate a trend query over records")
    p.add_argument("-i", "--input", required=True, metavar="RECORDS")
    p.add_argument("query", metavar="QUERY")
    p.add_argument("--from", dest="year_from", type=int, metavar="YEAR")
    p.add_argument("--to", dest="year_to", type=int, metavar="YEAR")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="series file (.json for JSON, otherwise CSV; default: CSV on stdout)")
    p.add_argument("--svg", metavar="FILE", help="also render the series as an SVG plot")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("top", help="most frequent n-grams of one length")
    p.add_argument("-i", "--input", required=True, metavar="RECORDS")
    p.add_argument("-n", type=int, choices=range(1, NGRAM_MAX + 1), default=2)
    p.add_argument("-k", type=int, default=15)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("catalog", help="plot the most frequent n-grams into a directory")
    p.add_argument("-i", "--input", required=True, metavar="RECORDS")
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.add_argument("--limit", type=int, default=DEFAULT_CATALOG_LIMIT)
    p.add_argument("--from", dest="year_from", type=int, metavar="YEAR")
    p.add_argument("--to", dest="year_to", type=int, metavar="YEAR")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("trends", help="rank rising or falling n-grams by fitted slope")
    p.add_argument("-i", "--input", required=True, metavar="RECORDS")
    p.add_argument("-n", type=int, choices=range(1, NGRAM_MAX + 1), default=2)
    p.add_argument("--direction", choices=("rising", "falling"), default="rising")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--min-support", type=int, default=DEFAULT_MIN_SUPPORT)
    p.add_argument("--min-years", type=int, default=DEFAULT_MIN_YEARS)
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser("demo", help="render the five demonstration queries as SVGs")
    p.add_argument("-i", "--input", required=True, metavar="RECORDS")
    p.add_argument("-o", "--output", default=".", metavar="DIR")
    p.add_argument("--from", dest="year_from", type=int, metavar="YEAR")
    p.add_argument("--to", dest="year_to", type=int, metavar="YEAR")
    p.set_defaults(func=cmd_demo)

    return parser


def run(argv=None):
    """Parse arguments and dispatch; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except UsageError as exc:
        if exc.usage:
            sys.stderr.write(exc.usage)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader went away, as `| head` does: nothing to report
        return _CLOSED_OUTPUT
    except (TrendgramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    """`run` as a program: Ctrl-C ends it with one line on standard error
    and status 130, where `run` lets `KeyboardInterrupt` through to its
    caller, and SIGTERM likewise with status 143. An output closed early,
    such as standard output piped into `head`, ends it with status 141
    and nothing on standard error: what standard output still buffers
    then goes to the null device, so that flushing it at exit does not
    fail again."""
    import signal  # here, so that importing this module or calling `run` does not load it

    def terminated(signum, frame):
        raise _Terminated

    signal.signal(signal.SIGTERM, terminated)
    try:
        status = run()
        sys.stdout.flush()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        status = 130
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        status = 143
    except BrokenPipeError:
        status = _CLOSED_OUTPUT
    if status == _CLOSED_OUTPUT:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(status)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args):
    _load("ingest")
    if args.year_min > args.year_max:
        raise UsageError("", f"year-min {args.year_min} is greater than year-max {args.year_max}")
    year_range = (args.year_min, args.year_max)
    mapping = _parse_csv_map(args.csv_map) if args.csv_map else None

    if not (args.bibtex or args.csv or args.endnote):
        raise UsageError("", "at least one input file is required (--bibtex/--csv/--endnote)")

    lists = []
    for paths, parse in (
        (args.bibtex, lambda t, o: parse_bibtex(t, year_range, o)),
        (args.csv, lambda t, o: parse_csv(t, mapping, year_range, o)),
        (args.endnote, lambda t, o: parse_endnote(t, year_range, o)),
    ):
        ordinal = 1
        for path in paths:
            text = read_text(path)
            try:
                entries, diagnostics = parse(text, ordinal)
            except IngestError as exc:
                raise IngestError(f"{location(path, exc.line)}{exc.message}") from None
            ordinal += len(entries)
            for diagnostic in diagnostics:
                print(f"{location(path, diagnostic.line)}{diagnostic.message}", file=sys.stderr)
            lists.append(entries)

    merged, report = merge_dedup(lists)
    write_corpus(merged, sys.stdout if args.output == "-" else args.output)
    for name in ("total_in", "incomplete_removed", "duplicates_removed", "total_out"):
        print(f"{name}: {getattr(report, name)}", file=sys.stderr)
    return 0


def _parse_csv_map(pairs):
    from .ingest import check_csv_mapping

    mapping = {}
    for pair in pairs:
        field, eq, column = pair.partition("=")
        field, column = field.strip(), column.strip()
        if not eq or not field or not column:
            raise UsageError("", f"--csv-map expects FIELD=COLUMN, got {pair!r}")
        if field in mapping:
            raise UsageError("", f"--csv-map: field '{field}' is mapped more than once")
        mapping[field] = column
    try:
        check_csv_mapping(mapping)
    except IngestError as exc:
        raise UsageError("", f"--csv-map: {exc}") from None
    return mapping


def _load_stoplist(path_argument):
    path = path_argument or os.environ.get(STOPLIST_ENV)
    if path:
        return Stoplist.from_file(path)
    return Stoplist.default()


def cmd_extract(args):
    _load("ingest", "ngrams", "textprep")
    stoplist = _load_stoplist(args.stoplist)
    entries = read_corpus(args.input)
    sentences = (sentence for entry in entries for sentence in entry_sentences(entry))
    table = count_ngrams(sentences, stoplist, 1, args.nmax)
    write_records(table, sys.stdout if args.output == "-" else args.output)
    return 0


def _year_range_for(args, table):
    lo = args.year_from
    hi = args.year_to
    span = table.year_span()
    if lo is None:
        lo = span[0] if span else None
    if hi is None:
        hi = span[1] if span else None
    if lo is None or hi is None:
        raise TrendgramError("records file has no years; pass --from and --to")
    if lo > hi:
        raise UsageError("", f"--from {lo} is greater than --to {hi}")
    return lo, hi


def _write_svg(path, series, title):
    with open_for_write(path) as fh:
        fh.write(render_plot(series, title))


def cmd_query(args):
    _load("frequency", "ngrams")
    if args.svg:
        _load("plotting")
    query = parse_query(args.query)
    table = read_table(args.input, query_lengths(query))
    series = evaluate(table, query, _year_range_for(args, table))
    if args.output is None or args.output == "-":
        write_series_csv(series, sys.stdout)
    elif args.output.endswith(".json"):
        write_series_json(series, args.output)
    else:
        write_series_csv(series, args.output)
    if args.svg:
        _write_svg(args.svg, series, args.query)
    return 0


def cmd_top(args):
    _load("ngrams")
    if args.k < 1:
        raise UsageError("", "-k must be at least 1")
    table = read_table(args.input, (args.n,))
    for rank, (ngram, total) in enumerate(top_ngrams(table, args.n, args.k), 1):
        print(f"{rank}. {ngram} {total}")
    return 0


def cmd_catalog(args):
    from .trends import load_catalog_stages

    _load("ngrams", "trends")
    # build_catalog would load its stages itself; loading them before the
    # table is read keeps what importing them briefly allocates (compiling,
    # without a bytecode cache) off the top of the table.
    load_catalog_stages()
    if args.limit < 1:
        raise UsageError("", "--limit must be at least 1")
    table = read_table(args.input)
    if not table.cells:
        raise TrendgramError("records file has no records to catalog")
    index = build_catalog(table, args.limit, args.output, _year_range_for(args, table))
    print(f"wrote {len(index)} plots to {args.output}", file=sys.stderr)
    return 0


def cmd_trends(args):
    _load("ngrams", "trends")
    if args.k < 1:
        raise UsageError("", "-k must be at least 1")
    table = read_table(args.input, (args.n,))
    ranked = rank_trends(table, args.n, args.direction, args.k,
                         min_support=args.min_support, min_years=args.min_years)
    print("rank,ngram,slope,total_count")
    for rank, entry in enumerate(ranked, 1):
        print(f"{rank},{entry.ngram},{format(entry.slope, '.10g')},{entry.total_count}")
    return 0


def cmd_demo(args):
    _load("frequency", "ngrams", "plotting")
    queries = [parse_query(text) for text in DEMO_QUERIES]
    table = read_table(args.input, set().union(*map(query_lengths, queries)))
    year_range = _year_range_for(args, table)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for number, (text, query) in enumerate(zip(DEMO_QUERIES, queries), 1):
        series = evaluate(table, query, year_range)
        slug = "-".join(query.series[0].phrases[0])
        path = out_dir / f"demo-{number}-{slug}.svg"
        _write_svg(path, series, text)
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    main()
