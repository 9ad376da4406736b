"""Command-line driver wiring ingest -> extract -> query/top/catalog/trends.

Each stage reads and writes plain files so intermediate artifacts
(corpus.csv, records.csv) stay inspectable. Diagnostics go to standard
error; data goes to standard output or the `-o` target. Exit status is
0 on success, 1 on a usage error, 2 on a data error, 130 when `main`
is interrupted with Ctrl-C, 141 when its output was closed early and
143 when `main` gets SIGTERM.
"""

import os
import sys
from types import SimpleNamespace

from . import _bind, _module_getattr
from ._limits import (DEFAULT_CATALOG_LIMIT, DEFAULT_MIN_SUPPORT, DEFAULT_MIN_YEARS,
                      DEFAULT_YEAR_RANGE, NGRAM_MAX, csv_mapping_problem)
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


class _Terminated(BaseException):
    """Raised by `main` on SIGTERM, so that the cleanup that runs for
    Ctrl-C runs for it too."""


def build_parser():
    """The argparse parser of `COMMANDS`, which `run` uses for every
    command line `_parse_plainly` leaves to it: help, usage errors and
    any spelling other than the plain one."""
    import argparse  # here, so that a plain command line does not load it

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse's usage line, then `run`'s `error:` line
            self.print_usage(sys.stderr)
            raise UsageError(f"{self.prog}: {message}")

    parser = Parser(prog="trendgram",
                    description="N-gram trend analysis over bibliographic metadata exports.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (summary, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flags, spec in arguments:
            p.add_argument(*flags, **spec)
        p.set_defaults(func=func)
    return parser


def _parse_plainly(argv):
    """The namespace `build_parser().parse_args(argv)` gives, built
    without argparse, for a plain command line: a command named exactly,
    then tokens that are each one of its option strings, spelled exactly
    and followed by a value that is `-` or does not start with `-`, or
    the value of its one positional. Every value must pass the `type` and
    `choices` argparse applies, and every required argument must be
    given. Any other command line gets None, and argparse parses it, so
    that every help text and usage error is argparse's own."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    options, positionals, required = {}, [], set()
    for flags, spec in arguments:
        # argparse's dest: given, or the first long option string (else the first) as a name
        long = [flag for flag in flags if flag.startswith("--")] or flags
        dest = spec.get("dest") or long[0].lstrip("-").replace("-", "_")
        values[dest] = spec.get("default")
        positional = not flags[0].startswith("-")
        if positional:
            positionals.append((dest, spec))
        else:
            options.update(dict.fromkeys(flags, (dest, spec)))
        if spec.get("required", positional):
            required.add(dest)
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            dest, spec = options[token]
            token = next(tokens, None)
        elif positionals:
            dest, spec = positionals.pop()
        else:
            return None
        # argparse reads a lone `-` as a value, and any other leading `-` as an option
        if token is None or token.startswith("-") and token != "-":
            return None
        try:
            value = spec.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = [*values[dest], value] if spec.get("action") == "append" else value
        required.discard(dest)
    return None if required else SimpleNamespace(**values)


def run(argv=None):
    """Parse arguments and dispatch; returns the process exit status.
    A `sys.stdout` or `sys.stderr` that is None, as Python leaves it when
    its descriptor is closed at start, is first replaced with the null
    device: what the command writes there is dropped."""
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, "w", encoding="utf-8"))
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_plainly(argv) or build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader went away, as `| head` does: nothing to report
        return _CLOSED_OUTPUT
    except (TrendgramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    """`run` as a program. Ctrl-C ends it with one line on standard error
    and status 130, where `run` lets `KeyboardInterrupt` through to its
    caller, and SIGTERM likewise with status 143. An output closed early,
    such as standard output piped into `head`, ends it with status 141
    and nothing on standard error; a failed last write to it, with status
    2 and one `error:` line. It flushes standard output, then standard
    error, and ends the process with `os._exit`: exit handlers registered
    by the environment (`sitecustomize`, `.pth` files, coverage's
    subprocess hook) do not run. Started with standard error closed or
    not writable, it drops the diagnostics and ends with the command's
    own status. In-process callers use `run`."""
    # `_signal`, the C module that `signal` wraps, is loaded before any user
    # code runs; importing `signal` itself would build its enum classes
    from _signal import SIGTERM, signal

    def terminated(signum, frame):
        raise _Terminated

    signal(SIGTERM, terminated)
    try:
        os.write(2, b"")  # fails if standard error is closed or cannot be written
    except OSError:  # then diagnostics are dropped, and descriptor 2 is held on the
        # null device, so that no file the command opens takes it
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
        os.dup2(sys.stderr.fileno(), 2)
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
    except OSError as exc:  # from the flush, such as a full disk
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    sys.stderr.flush()
    os._exit(status)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args):
    if args.year_min > args.year_max:
        raise UsageError(f"year-min {args.year_min} is greater than year-max {args.year_max}")
    year_range = (args.year_min, args.year_max)
    mapping = _parse_csv_map(args.csv_map) if args.csv_map else None
    if not (args.bibtex or args.csv or args.endnote):
        raise UsageError("at least one input file is required (--bibtex/--csv/--endnote)")
    _load("ingest")
    from ._io import location, read_text  # here, so that `top` does not load `_io`

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
    mapping = {}
    for pair in pairs:
        field, eq, column = pair.partition("=")
        field, column = field.strip(), column.strip()
        if not eq or not field or not column:
            raise UsageError(f"--csv-map expects FIELD=COLUMN, got {pair!r}")
        if field in mapping:
            raise UsageError(f"--csv-map: field '{field}' is mapped more than once")
        mapping[field] = column
    if problem := csv_mapping_problem(mapping):
        raise UsageError(f"--csv-map: {problem}")
    return mapping


def _load_stoplist(path_argument):
    path = path_argument or os.environ.get(STOPLIST_ENV)
    if path:
        return Stoplist.from_file(path)
    return Stoplist.default()


def cmd_extract(args):
    _load("ingest", "ngrams", "textprep")
    stoplist = _load_stoplist(args.stoplist)
    # The corpus's entries are let go once their tokens are prepared, and
    # each length is counted only after the one before it is written.
    runs = token_runs(sentence for entry in read_corpus(args.input)
                      for sentence in entry_sentences(entry))
    tables = (count_ngrams(runs, stoplist, n, n) for n in range(1, args.nmax + 1))
    write_records(tables, sys.stdout if args.output == "-" else args.output)
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
    return _ordered(lo, hi)


def _ordered(lo, hi):
    """`(lo, hi)`, refused as a usage error if both are given and `lo`
    is the greater. A command checks its own `--from` and `--to` so
    before it loads any stage, and `_year_range_for` again once a bound
    missing from them has come from the table."""
    if lo is not None and hi is not None and lo > hi:
        raise UsageError(f"--from {lo} is greater than --to {hi}")
    return lo, hi


def _write_svg(path, series, title):
    from ._io import open_for_write  # here, so that `top` does not load `_io`

    with open_for_write(path) as fh:
        fh.write(render_plot(series, title))


def cmd_query(args):
    _ordered(args.year_from, args.year_to)
    # `table` first: its compile, the largest, then runs while the fewest
    # objects are resident, which lowers the command's peak memory.
    _load("table", "frequency")
    if args.svg:
        _load("plotting")
    query = parse_query(args.query)
    table = read_table(args.input, ngrams=query_ngrams(query))
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
    if args.k < 1:
        raise UsageError("-k must be at least 1")
    _load("table")
    table = read_table(args.input, (args.n,), Prefix(first=args.k))
    for rank, (ngram, total) in enumerate(top_ngrams(table, args.n, args.k), 1):
        print(f"{rank}. {ngram} {total}")
    return 0


def cmd_catalog(args):
    if args.limit < 1:
        raise UsageError("--limit must be at least 1")
    _ordered(args.year_from, args.year_to)
    # build_catalog would load `frequency` and `plotting` itself; loading
    # them before the table is read keeps what importing them briefly
    # allocates (compiling, without a bytecode cache) off the top of the table.
    _load("table", "trends", "frequency", "plotting")
    table = read_table(args.input, prefix=Prefix(first=args.limit))
    if not table.cells:
        raise TrendgramError("records file has no records to catalog")
    index = build_catalog(table, args.limit, args.output, _year_range_for(args, table))
    print(f"wrote {len(index)} plots to {args.output}", file=sys.stderr)
    return 0


def cmd_trends(args):
    if args.k < 1:
        raise UsageError("-k must be at least 1")
    _load("table", "trends")
    table = read_table(args.input, (args.n,), Prefix(min_total=args.min_support))
    ranked = rank_trends(table, args.n, args.direction, args.k,
                         min_support=args.min_support, min_years=args.min_years)
    from ._io import csv_cell  # here, so that `top` does not load `_io`

    print("rank,ngram,slope,total_count")
    for rank, entry in enumerate(ranked, 1):
        print(f"{rank},{csv_cell(entry.ngram)},{format(entry.slope, '.10g')},{entry.total_count}")
    return 0


def cmd_demo(args):
    _ordered(args.year_from, args.year_to)
    _load("table", "frequency", "plotting")  # `table` first, as in cmd_query
    queries = [parse_query(text) for text in DEMO_QUERIES]
    table = read_table(args.input, ngrams=set().union(*map(query_ngrams, queries)))
    year_range = _year_range_for(args, table)
    from pathlib import Path  # here, after the table is read; top, query and trends never load it
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for number, (text, query) in enumerate(zip(DEMO_QUERIES, queries), 1):
        series = evaluate(table, query, year_range)
        slug = "-".join(query.series[0].phrases[0])
        path = out_dir / f"demo-{number}-{slug}.svg"
        _write_svg(path, series, text)
        print(f"wrote {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# the command table: `build_parser` and `_parse_plainly` both read it

def _arg(*flags, **spec):
    """One argument: its option strings (or name) and `add_argument` keywords."""
    return flags, spec


_RECORDS = _arg("-i", "--input", required=True, metavar="RECORDS")
_FROM = _arg("--from", dest="year_from", type=int, metavar="YEAR")
_TO = _arg("--to", dest="year_to", type=int, metavar="YEAR")
_LENGTH = _arg("-n", type=int, choices=range(1, NGRAM_MAX + 1), default=2)

# Each command: its help line, its handler and its arguments, in help order.
COMMANDS = {
    "ingest": ("parse exports into the canonical corpus CSV", cmd_ingest, (
        _arg("--bibtex", action="append", default=[], metavar="FILE"),
        _arg("--csv", action="append", default=[], metavar="FILE"),
        _arg("--csv-map", action="append", default=[], metavar="FIELD=COLUMN",
             help="column mapping for --csv files; replaces the IEEE default"),
        _arg("--endnote", action="append", default=[], metavar="FILE"),
        _arg("--year-min", type=int, default=DEFAULT_YEAR_RANGE[0]),
        _arg("--year-max", type=int, default=DEFAULT_YEAR_RANGE[1]),
        _arg("-o", "--output", required=True, metavar="FILE",
             help="corpus CSV destination ('-' for stdout)"),
    )),
    "extract": ("turn a corpus into n-gram records", cmd_extract, (
        _arg("-i", "--input", required=True, metavar="CORPUS"),
        _arg("-o", "--output", required=True, metavar="RECORDS",
             help="records CSV destination ('-' for stdout)"),
        _arg("--stoplist", metavar="FILE",
             help=f"stopword list (default: ${STOPLIST_ENV} or the bundled list)"),
        _arg("--nmax", type=int, choices=range(1, NGRAM_MAX + 1), default=NGRAM_MAX),
    )),
    "query": ("evaluate a trend query over records", cmd_query, (
        _RECORDS,
        _arg("query", metavar="QUERY"),
        _FROM,
        _TO,
        _arg("-o", "--output", metavar="FILE",
             help="series file (.json for JSON, otherwise CSV; default: CSV on stdout)"),
        _arg("--svg", metavar="FILE", help="also render the series as an SVG plot"),
    )),
    "top": ("most frequent n-grams of one length", cmd_top, (
        _RECORDS,
        _LENGTH,
        _arg("-k", type=int, default=15),
    )),
    "catalog": ("plot the most frequent n-grams into a directory", cmd_catalog, (
        _RECORDS,
        _arg("-o", "--output", required=True, metavar="DIR"),
        _arg("--limit", type=int, default=DEFAULT_CATALOG_LIMIT),
        _FROM,
        _TO,
    )),
    "trends": ("rank rising or falling n-grams by fitted slope", cmd_trends, (
        _RECORDS,
        _LENGTH,
        _arg("--direction", choices=("rising", "falling"), default="rising"),
        _arg("-k", type=int, default=10),
        _arg("--min-support", type=int, default=DEFAULT_MIN_SUPPORT),
        _arg("--min-years", type=int, default=DEFAULT_MIN_YEARS),
    )),
    "demo": ("render the five demonstration queries as SVGs", cmd_demo, (
        _RECORDS,
        _arg("-o", "--output", default=".", metavar="DIR"),
        _FROM,
        _TO,
    )),
}


if __name__ == "__main__":
    main()
