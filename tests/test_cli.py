from __future__ import annotations

import ast
import errno
import importlib
import io
import json
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
import tokenize
import weakref
from contextlib import redirect_stdout
from itertools import groupby, takewhile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trendgram
import trendgram.cli

from make_goldens import HEADLINE_QUERY, TEXT_GOLDENS
from support import STOPPY_WORDS, WORDS, make_entry
from trendgram._io import open_for_write
from trendgram.cli import COMMANDS, DEMO_QUERIES, UsageError, _parse_plainly, build_parser, run
from trendgram.frequency import evaluate, parse_query, write_series_csv
from trendgram.ingest import (DEFAULT_CSV_MAPPING, merge_dedup, parse_bibtex, parse_csv,
                              parse_endnote, read_corpus, write_corpus)
from trendgram.ngrams import _BATCH, Stoplist, count_ngrams, write_records
from trendgram.table import build_table, read_records
from trendgram.textprep import entry_sentences

BIB = (
    "@article{a, title={Code Tracing Tools}, abstract={We trace code. Code tools help.},"
    " author={A. One}, year={2005}, keywords={code tracing}}\n"
    "@article{b, title={Tracing in Practice}, abstract={Tracing scales well.},"
    " author={B. Two}, year={2006}}\n"
)


@pytest.fixture()
def records_csv(tmp_path):
    entries, _ = parse_bibtex(BIB)
    corpus = tmp_path / "corpus.csv"
    write_corpus(entries, corpus)
    records = tmp_path / "records.csv"
    assert run(["extract", "-i", str(corpus), "-o", str(records)]) == 0
    return records


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["top", "--bogus"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "ingest" in capsys.readouterr().out


# Tokens that argparse reads in a way the plain parse does not: help,
# abbreviations, `--opt=value`, attached short values, `--`, negative
# numbers and unknown options. A lone `-` is a value to both.
NOT_PLAIN = ["-h", "--help", "--", "-5", "-n2", "-k5", "-ir.csv", "--input=r.csv",
             "--nmax=2", "--from=2000", "--in", "--inp", "--out", "--dir", "--min-s", "--min",
             "--csv-m", "--li", "--sv", "--bib", "--year", "-x", "--bogus"]
VALUES = st.one_of(
    st.sampled_from([" 3", "1_0", "\u0663", "+2", "3.0", "", "1", "2", "4", "9", "0", "2005",
                     "rising", "falling", "up", "r.csv", "a=b", "code, tools", "top", "-5", "-",
                     "--x", "-i", "--input"]),
    st.text(max_size=3))


@st.composite
def command_lines(draw):
    """Command lines near the plain ones: a command (or not), most of its
    required arguments, then options of its own with values, extra
    positionals and `NOT_PLAIN` tokens, in any order after the command."""
    name = draw(st.sampled_from([*COMMANDS, *COMMANDS, "frob", "Top", "-h", ""]))
    arguments = COMMANDS[name][2] if name in COMMANDS else ()
    options = [flag for flags, _ in arguments for flag in flags if flag.startswith("-")]
    groups = []
    for flags, spec in arguments:
        positional = not flags[0].startswith("-")
        if spec.get("required", positional) and draw(st.integers(0, 9)):
            value = draw(st.sampled_from(["r.csv", "2", "code"]))
            groups.append([value] if positional else [draw(st.sampled_from(flags)), value])
    pair = st.tuples(st.sampled_from(options or NOT_PLAIN), VALUES).map(list)
    groups += draw(st.lists(st.one_of(pair, pair, VALUES.map(lambda value: [value]),
                                      st.sampled_from(NOT_PLAIN).map(lambda token: [token])),
                            max_size=5))
    return [name, *(token for group in draw(st.permutations(groups)) for token in group)]


@settings(max_examples=300, deadline=None)
@given(command_lines())
@example(["top", "-i", "r.csv", "-n", "3", "-k", "20", "-n", "1"])
@example(["query", "--svg", "q.svg", "code, tools", "--input", "r.csv", "--from", " 2005"])
@example(["ingest", "--csv", "a.csv", "--csv", "b.csv", "--csv-map", "title=T", "-o", "-"])
@example(["trends", "-i", "r.csv", "--direction", "falling", "--min-support", "1_0"])
@example(["trends", "-i", "r.csv", "--direction", "up"])
@example(["extract", "-i", "c.csv", "-o", "r.csv", "--nmax", "0"])
@example(["query", "-i", "r.csv", "code", "tools"])
@example(["demo", "-o", "plots"])
@example(["query", "-i", "r.csv", "code", "--svg", "--to"])
def test_the_plain_parse_is_argparse_or_nothing(argv):
    plain = _parse_plainly(argv)
    try:
        with redirect_stdout(io.StringIO()):  # the help that -h prints
            parsed = build_parser().parse_args(argv)
    except (UsageError, SystemExit):
        assert plain is None
    else:
        assert plain is None or vars(plain) == vars(parsed)


@pytest.mark.parametrize("argv", [
    ["top", "-i", "r.csv", "-n", "3", "-k", "20"],
    ["query", "-i", "r.csv", "code, tools", "-o", "s.json", "--svg", "q.svg", "--to", "2010"],
    ["trends", "--input", "r.csv", "--direction", "falling", "-k", "5", "--min-years", "2"],
    ["demo", "-i", "r.csv"],
    ["catalog", "-i", "r.csv", "-o", "catalog", "--limit", "100"],
    ["extract", "-i", "c.csv", "-o", "r.csv", "--nmax", "2", "--stoplist", "s.txt"],
    ["ingest", "--bibtex", "a.bib", "--bibtex", "b.bib", "--endnote", "e.enw", "-o", "c.csv",
     "--year-min", "1990"],
    ["ingest", "--csv", "a.csv", "-o", "-"],
    ["extract", "-i", "c.csv", "-o", "-"],
    ["query", "-i", "r.csv", "code", "-o", "-"],
], ids=lambda argv: argv[0] + ("-stdout" if "-" in argv else ""))
def test_every_command_parses_plainly(argv):
    assert vars(_parse_plainly(argv)) == vars(build_parser().parse_args(argv))


def test_ingest_requires_input_files(tmp_path, capsys):
    assert run(["ingest", "-o", str(tmp_path / "c.csv")]) == 1
    assert "at least one input" in capsys.readouterr().err


def test_ingest_rejects_bad_year_window(tmp_path, capsys):
    bib = tmp_path / "x.bib"
    bib.write_text(BIB)
    assert run(["ingest", "--bibtex", str(bib), "--year-min", "2010",
                "--year-max", "2000", "-o", str(tmp_path / "c.csv")]) == 1


def test_ingest_rejects_bad_csv_map(tmp_path, capsys):
    assert run(["ingest", "--csv", "whatever.csv", "--csv-map", "nope=Header",
                "-o", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --csv-map: unknown field(s) in CSV mapping: nope"
        " (fields are title, abstract, keywords, year, authors)"]


@pytest.mark.parametrize("pairs, missing", [
    (["abstract=Abstract"], "title"),
    (["title=Document Title", "abstract=Abstract"], "year"),
])
def test_ingest_incomplete_csv_map_is_usage_error(pairs, missing, demo_dir, tmp_path, capsys):
    # Checked once, before any export is read: the second file does not exist.
    argv = ["ingest", "--csv", str(demo_dir / "demo.csv"), "--csv", str(tmp_path / "absent.csv"),
            "-o", str(tmp_path / "c.csv")]
    for pair in pairs:
        argv += ["--csv-map", pair]
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --csv-map: CSV mapping must include '{missing}'"]
    assert not (tmp_path / "c.csv").exists()


def test_ingest_csv_map_naming_a_field_twice_is_usage_error(demo_dir, tmp_path, capsys):
    # Checked once, before any export is read: the second file does not exist.
    argv = ["ingest", "--csv", str(demo_dir / "demo.csv"), "--csv", str(tmp_path / "absent.csv"),
            "--csv-map", "title=Document Title", "--csv-map", "title=Abstract",
            "--csv-map", "year=Publication Year", "-o", str(tmp_path / "c.csv")]
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --csv-map: field 'title' is mapped more than once"]
    assert not (tmp_path / "c.csv").exists()


def test_ingest_csv_map_without_a_column_is_usage_error(demo_dir, tmp_path, capsys):
    assert run(["ingest", "--csv", str(demo_dir / "demo.csv"), "--csv-map", "title",
                "-o", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --csv-map expects FIELD=COLUMN, got 'title'"]
    assert not (tmp_path / "c.csv").exists()


def test_ingest_csv_map_reads_renamed_columns(demo_dir, tmp_path):
    renamed = {"Document Title": "Name", "Authors": "Writers", "Publication Year": "Yr",
               "Abstract": "Summary", "Author Keywords": "Tags"}
    header, rest = (demo_dir / "demo.csv").read_bytes().split(b"\n", 1)
    columns = header.decode().split(",")
    assert set(renamed) == set(DEFAULT_CSV_MAPPING.values()) <= set(columns)
    export = tmp_path / "renamed" / "demo.csv"
    export.parent.mkdir()
    export.write_bytes(",".join(renamed.get(column, column) for column in columns).encode()
                       + b"\n" + rest)
    assert run(["ingest", "--csv", str(demo_dir / "demo.csv"),
                "-o", str(tmp_path / "default.csv")]) == 0
    argv = ["ingest", "--csv", str(export), "-o", str(tmp_path / "mapped.csv")]
    for field, column in DEFAULT_CSV_MAPPING.items():
        argv += ["--csv-map", f"{field}={renamed[column]}"]
    assert run(argv) == 0
    corpus = (tmp_path / "default.csv").read_bytes()
    assert corpus.count(b"\n") > 1
    assert (tmp_path / "mapped.csv").read_bytes() == corpus


def test_ingest_missing_file_is_data_error(tmp_path, capsys):
    assert run(["ingest", "--bibtex", str(tmp_path / "absent.bib"),
                "-o", str(tmp_path / "c.csv")]) == 2


def test_ingest_writes_corpus_and_report_to_stderr(tmp_path, capsys):
    bib = tmp_path / "x.bib"
    bib.write_text(BIB)
    out = tmp_path / "corpus.csv"
    assert run(["ingest", "--bibtex", str(bib), "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "total_in: 2",
        "incomplete_removed: 0",
        "duplicates_removed: 0",
        "total_out: 2",
    ]
    assert len(read_corpus(out)) == 2


def test_ingest_ids_count_on_across_files_of_one_source(tmp_path, capsys):
    first, second, enw = tmp_path / "1.bib", tmp_path / "2.bib", tmp_path / "x.enw"
    first.write_text(BIB)
    second.write_text(BIB.replace("title={", "title={More "))
    enw.write_text("%T Elsewhere\n%A C. Three\n%D 2007\n%X Text.\n")
    out = tmp_path / "corpus.csv"
    assert run(["ingest", "--bibtex", str(first), "--bibtex", str(second),
                "--endnote", str(enw), "-o", str(out)]) == 0
    assert [e.id for e in read_corpus(out)] == [
        "bibtex:1", "bibtex:2", "bibtex:3", "bibtex:4", "endnote:1"]


def test_ingest_diagnostics_name_file_and_line(tmp_path, capsys):
    bib = tmp_path / "x.bib"
    bib.write_text("@article{bad, title={T}, abstract={A.}, author={X}, year={nope}}\n" + BIB)
    assert run(["ingest", "--bibtex", str(bib), "-o", str(tmp_path / "c.csv")]) == 0
    err = capsys.readouterr().err
    assert f"{bib}:1: record 'bad': non-numeric year 'nope'" in err


def test_ingest_corpus_to_stdout(tmp_path, capsys):
    bib = tmp_path / "x.bib"
    bib.write_text(BIB)
    assert run(["ingest", "--bibtex", str(bib), "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("id,source,year,title,abstract,keywords,authors\n")


def test_ingest_accepts_byte_order_mark(demo_dir, tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    marked = tmp_path / "marked.csv"
    assert run(["ingest", "--csv", str(demo_dir / "demo.csv"), "-o", str(plain)]) == 0
    marked.write_bytes(b"\xef\xbb\xbf" + (demo_dir / "demo.csv").read_bytes())
    out = tmp_path / "corpus.csv"
    assert run(["ingest", "--csv", str(marked), "-o", str(out)]) == 0
    assert out.read_bytes() == plain.read_bytes()


LATIN_1 = "caf\u00e9\n".encode("latin-1")


@pytest.mark.parametrize("kind, argv", [
    ("export", ["ingest", "--bibtex", "{bad}", "-o", "{tmp}/c.csv"]),
    ("corpus", ["extract", "-i", "{bad}", "-o", "{tmp}/r.csv"]),
    ("stoplist", ["extract", "-i", "{corpus}", "-o", "{tmp}/r.csv", "--stoplist", "{bad}"]),
    ("records", ["top", "-i", "{bad}"]),
])
def test_non_utf8_input_is_data_error(kind, argv, tmp_path, capsys):
    entries, _ = parse_bibtex(BIB)
    corpus = tmp_path / "corpus.csv"
    write_corpus(entries, corpus)
    bad = tmp_path / f"{kind}.txt"
    bad.write_bytes(LATIN_1)
    argv = [arg.format(bad=bad, tmp=tmp_path, corpus=corpus) for arg in argv]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: not UTF-8 text (byte 0xe9)"]


@pytest.mark.parametrize("module", ["trendgram", "trendgram.cli"])
def test_python_dash_m_runs_the_cli(records_csv, module):
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", module, "top", "-i", str(records_csv), "-n", "1", "-k", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False)
    assert (result.returncode, result.stdout) == (0, "1. code 4\n")


@pytest.mark.parametrize("argv, message", [
    (["top", "-k", "0"], "-k must be at least 1"),
    (["trends", "-k", "0"], "-k must be at least 1"),
    (["catalog", "--limit", "0", "-o", "{tmp}/catalog"], "--limit must be at least 1"),
], ids=["top", "trends", "catalog"])
def test_counts_below_one_are_usage_errors(argv, message, records_csv, tmp_path):
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    command, *rest = argv
    result = subprocess.run(
        [sys.executable, "-m", "trendgram", command, "-i", str(records_csv),
         *(arg.format(tmp=tmp_path) for arg in rest)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.splitlines() == [f"error: {message}"]
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "catalog").exists()


@pytest.mark.parametrize("argv", [
    ["query", "code", "--from", "2014", "--to", "2013"],
    ["catalog", "-o", "{tmp}/catalog", "--from", "2014", "--to", "2013"],
    ["demo", "-o", "{tmp}/catalog", "--from", "2014", "--to", "2013"],
], ids=lambda argv: argv[0])
def test_reversed_years_are_usage_errors_before_the_records_are_read(argv, tmp_path):
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    command, *rest = argv
    result = subprocess.run(
        [sys.executable, "-m", "trendgram", command, "-i", str(tmp_path / "missing.csv"),
         *(arg.format(tmp=tmp_path) for arg in rest)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.splitlines() == ["error: --from 2014 is greater than --to 2013"]
    assert not (tmp_path / "catalog").exists()


# A quoted field longer than the csv module's default limit of 131072 characters.
BIG_FIELD = '"' + "x" * 140_000 + '"'


@pytest.mark.parametrize("line", [1, 2])
@pytest.mark.parametrize("argv, header, row, where", [
    (["ingest", "--csv", "{bad}", "-o", "{tmp}/c.csv"],
     "Document Title,Abstract,Author Keywords,Publication Year,Authors",
     f"T,{BIG_FIELD},,2005,A", "{bad}:{line}: "),
    (["extract", "-i", "{bad}", "-o", "{tmp}/r.csv"],
     "id,source,year,title,abstract,keywords,authors",
     f"x,csv,2000,T,{BIG_FIELD},,", "{bad}:{line}: "),
    (["top", "-i", "{bad}"], "n,ngram,year,count", f"1,{BIG_FIELD},2000,3", "{bad}:{line}: "),
], ids=["export", "corpus", "records"])
def test_csv_field_over_size_limit_is_data_error(argv, header, row, where, line,
                                                 tmp_path, capsys):
    bad = tmp_path / "big.csv"
    bad.write_text(f"{BIG_FIELD}\n" if line == 1 else f"{header}\n{row}\n")
    assert run([arg.format(bad=bad, tmp=tmp_path) for arg in argv]) == 2
    message = where.format(bad=bad, line=line) + "field larger than field limit (131072)"
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


# BibTeX fields whose corpus cell the corpus reader would refuse: NUL,
# which Python 3.10's csv module reads nowhere, and a cell over the csv
# module's limit, or one casefolding takes over it (each `ß` becomes `ss`).
@pytest.mark.parametrize("fields, problem", [
    ("title={nul\x00 title}, abstract={A.}", "title holds NUL"),
    ("title={T}, abstract={" + "word " * 46_800 + "}",
     "abstract longer than 131072 characters once casefolded"),
    ("title={" + "\u00df" * 70_000 + "}, abstract={A.}",
     "title longer than 131072 characters once casefolded"),
], ids=["nul", "long", "casefolded"])
def test_ingest_refuses_a_cell_the_corpus_could_not_hold(fields, problem, tmp_path, capsys):
    bib = tmp_path / "big.bib"
    bib.write_text(f"@article{{k, {fields}, author={{X}}, year={{2005}}}}\n", encoding="utf-8")
    assert run(["ingest", "--bibtex", str(bib), "-o", str(tmp_path / "c.csv")]) == 0
    assert capsys.readouterr().err.splitlines()[:2] == [f"{bib}:1: record 'k': {problem}",
                                                        "total_in: 0"]
    assert run(["extract", "-i", str(tmp_path / "c.csv"), "-o", str(tmp_path / "r.csv")]) == 0


def test_a_cell_at_the_csv_limit_passes_every_stage(tmp_path, capsys):
    bib = tmp_path / "big.bib"
    bib.write_text(f"@article{{k, title={{Z}}, abstract={{{'x' * 131_072}}}, author={{X}},"
                   " year={2005}}\n", encoding="utf-8")
    assert run(["ingest", "--bibtex", str(bib), "-o", str(tmp_path / "c.csv")]) == 0
    assert run(["extract", "-i", str(tmp_path / "c.csv"), "-o", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert run(["top", "-i", str(tmp_path / "r.csv"), "-n", "1", "-k", "1"]) == 0
    assert capsys.readouterr().out == f"1. {'x' * 131_072} 1\n"


def test_ingest_csv_header_error_names_the_file(demo_dir, tmp_path, capsys):
    bad = tmp_path / "second.csv"
    bad.write_text("Document Title,Abstract,Publication Year,Authors\nT,X,2005,A\n")
    assert run(["ingest", "--csv", str(demo_dir / "demo.csv"), "--csv", str(bad),
                "-o", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: column 'Author Keywords' (mapped from 'keywords') not in CSV header"]


def test_cli_import_skips_unused_stdlib_chains():
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    listing = "import sys; print(' '.join(sys.modules))"
    bare, with_cli = (
        set(subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                           text=True, check=True).stdout.split())
        for code in (listing, f"import sys; sys.path.insert(0, {src!r}); "
                              f"import trendgram.cli; {listing}"))
    assert "trendgram.cli" in with_cli
    unused = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "dataclasses",
              "importlib.resources", "hashlib", "html", "argparse", "gettext", "typing", "pathlib",
              "__future__")
    loaded = sorted(name for name in with_cli - bare
                    if any(name == root or name.startswith(root + ".") for root in unused))
    assert loaded == []


STAGES = ("ingest", "textprep", "ngrams", "table", "frequency", "plotting", "trends")
# Standard modules that a command reading records does without, beside `json` and `csv`.
STARTUP = ("argparse", "gettext", "locale", "typing", "pathlib", "__future__")


def _modules_after(code, *argv, cwd=None):
    """The `trendgram.*` modules, `json`, `csv` and the `STARTUP` modules
    that a fresh interpreter holds after running `code`, which may set
    `status`; and that status."""
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    listing = ("print(globals().get('status'), *sorted(name for name in sys.modules "
               f"if name in ('json', 'csv', *{STARTUP!r}) or name.startswith('trendgram.')))")
    result = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}; {listing}",
         *argv], capture_output=True, text=True, check=True, cwd=cwd)
    status, *modules = result.stdout.splitlines()[-1].split()
    return status, set(modules)


def test_import_trendgram_loads_no_stage():
    assert _modules_after("import trendgram") == ("None", set())


def test_import_trends_loads_no_catalog_stage():
    _, modules = _modules_after("import trendgram.trends")
    assert "trendgram.trends" in modules
    assert modules.isdisjoint({"trendgram.frequency", "trendgram.plotting", "trendgram.textprep"})


def _module_names(names):
    """The `sys.modules` names of stages and of `json` and `csv`."""
    return {name if name in ("json", "csv") else f"trendgram.{name}" for name in names}


@pytest.mark.parametrize("argv, loaded, unloaded", [
    (["ingest", "--bibtex", "{demo}/demo.bib", "--csv", "{demo}/demo.csv",
      "--endnote", "{demo}/demo.enw", "-o", "c.csv"],
     ["ingest"], ["ngrams", "table", "textprep", "frequency", "plotting", "trends"]),
    (["extract", "-i", "corpus.csv", "-o", "r.csv"],
     ["ingest", "textprep", "ngrams", "table"], ["frequency", "plotting", "trends"]),
    (["top", "-i", "records.csv", "-n", "2"],
     ["table"], ["ngrams", "ingest", "frequency", "plotting", "trends", "_io", "csv"]),
    (["query", "-i", "records.csv", "code", "-o", "series.csv"],
     ["frequency", "table"], ["ngrams", "plotting", "json", "csv"]),
    (["query", "-i", "records.csv", "code", "--svg", "q.svg"],
     ["frequency", "table", "plotting"], ["ngrams", "json", "csv"]),
    (["trends", "-i", "records.csv", "--min-support", "1", "--min-years", "1"],
     ["table", "trends"], ["ngrams", "ingest", "textprep", "frequency", "plotting", "csv"]),
    (["catalog", "-i", "records.csv", "-o", "catalog", "--limit", "3"],
     ["table", "trends", "frequency", "plotting"],
     ["ngrams", "ingest", "textprep", "_io", "csv"]),
    (["demo", "-i", "records.csv", "-o", "plots"],
     ["frequency", "table", "plotting"], ["ngrams", "ingest", "trends", "json", "csv"]),
])
def test_each_command_loads_only_its_stages(records_csv, demo_dir, argv, loaded, unloaded):
    argv = [arg.format(demo=demo_dir) for arg in argv]
    # The first read of records.csv parses it, which loads `csv` and `_io`,
    # and writes its index; the second run reads the index, as every later
    # command does.
    first, indexed = (_modules_after("from trendgram.cli import run; status = run(sys.argv[1:])",
                                     *argv, cwd=records_csv.parent) for _ in range(2))
    for status, modules in first, indexed:
        assert status == "0"
        assert _module_names(loaded) <= modules
        assert modules.isdisjoint(_module_names(set(unloaded) - {"csv", "_io"}))
    assert indexed[1].isdisjoint(_module_names(unloaded))


@pytest.mark.parametrize("argv", [
    ["top", "-i", "records.csv", "-n", "2"],
    ["trends", "-i", "records.csv", "--min-support", "1", "--min-years", "1"],
    ["query", "-i", "records.csv", "code, tools", "-o", "series.csv"],
], ids=lambda argv: argv[0])
def test_a_read_command_loads_no_argparse_typing_or_pathlib(records_csv, argv):
    # A first read and an indexed one, as in test_each_command_loads_only_its_stages.
    for _ in range(2):
        status, modules = _modules_after("from trendgram.cli import run; status = run(sys.argv[1:])",
                                         *argv, cwd=records_csv.parent)
        assert status == "0"
        assert modules.isdisjoint(STARTUP)


def test_a_command_writing_to_stdout_loads_no_argparse(records_csv):
    status, modules = _modules_after("from trendgram.cli import run; status = run(sys.argv[1:])",
                                     "extract", "-i", "corpus.csv", "-o", "-",
                                     cwd=records_csv.parent)
    assert status == "0"
    assert modules.isdisjoint({"argparse", "gettext", "locale", "pathlib", "__future__"})


def test_catalog_loads_its_stages_before_it_reads_the_table(records_csv):
    # Loaded after the table is read, what compiling them briefly allocates
    # would sit on top of the table and raise the command's peak memory.
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    child = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "import trendgram.table as table",
        "read_table = table.read_table",
        "def reading(*args, **kwargs):",
        "    print(*sorted(name for name in sys.modules if name.startswith('trendgram.')))",
        "    return read_table(*args, **kwargs)",
        "table.read_table = reading",
        "from trendgram.cli import run",
        "sys.exit(run(sys.argv[1:]))",
    ])
    result = subprocess.run(
        [sys.executable, "-S", "-c", child, "catalog", "-i", "records.csv", "-o", "catalog",
         "--limit", "3"], capture_output=True, text=True, check=True, cwd=records_csv.parent)
    assert {"trendgram.frequency", "trendgram.plotting"} <= set(result.stdout.split())


def _parser_tokens(path):
    """The tokens CPython's parser reads from the module at `path`: those
    `tokenize` gives, less comments and the newlines that end no
    statement."""
    with tokenize.open(path) as fh:
        return sum(token.type not in (tokenize.COMMENT, tokenize.NL)
                   for token in tokenize.generate_tokens(fh.readline))


def test_no_module_a_read_command_loads_has_4096_parser_tokens(records_csv):
    """With no bytecode cache, a command compiles every module it loads,
    and compiling is most of what a command that reads records holds
    above the bare interpreter. At 4,096 tokens CPython's parser doubles
    its token array: `compile()` of a module just past that point peaks
    about 232 KB higher than just below it (tracemalloc on Python 3.11,
    for a 4,011-token module padded: 1,522 KB at 4,094 tokens, 1,754 KB
    at 4,098)."""
    commands = [["top", "-i", "records.csv"],
                ["query", "-i", "records.csv", "code", "--svg", "q.svg", "-o", "q.json"],
                ["trends", "-i", "records.csv"],
                ["catalog", "-i", "records.csv", "-o", "catalog"],
                ["demo", "-i", "records.csv", "-o", "plots"]]
    status, modules = _modules_after(
        f"from trendgram.cli import run; status = max(map(run, {commands!r}))",
        cwd=records_csv.parent)
    assert status == "0"
    assert {"trendgram._whole", "trendgram.table", "trendgram.trends"} <= modules
    sizes = {name: _parser_tokens(importlib.import_module(name).__file__)
             for name in {"trendgram", *modules} if name.startswith("trendgram")}
    assert max(sizes.values()) < 4096, sizes


@pytest.mark.parametrize("argv", [
    ["top", "-i", "records.csv", "-k", "0"],
    ["trends", "-i", "records.csv", "-k", "0"],
    ["catalog", "-i", "records.csv", "-o", "catalog", "--limit", "0"],
], ids=["top", "trends", "catalog"])
def test_a_count_below_one_loads_no_stage(records_csv, argv):
    status, modules = _modules_after("from trendgram.cli import run; status = run(sys.argv[1:])",
                                     *argv, cwd=records_csv.parent)
    assert status == "1"
    assert modules.isdisjoint(f"trendgram.{stage}" for stage in STAGES)


@pytest.mark.parametrize("argv", [
    ["ingest", "--bibtex", "missing.bib", "--year-min", "2010", "--year-max", "2000",
     "-o", "c.csv"],
    ["ingest", "-o", "c.csv"],
    ["ingest", "--csv", "x.csv", "--csv-map", "nope=H", "-o", "c.csv"],
    ["ingest", "--csv", "x.csv", "--csv-map", "year=Y", "-o", "c.csv"],
    ["ingest", "--csv", "x.csv", "--csv-map", "title=T", "-o", "c.csv"],
    ["ingest", "--csv", "x.csv", "--csv-map", "title", "-o", "c.csv"],
    ["ingest", "--csv", "x.csv", "--csv-map", "title=T", "--csv-map", "title=U", "-o", "c.csv"],
], ids=["years", "no-input", "map-unknown", "map-no-title", "map-no-year", "map-no-column",
        "map-twice"])
def test_an_ingest_usage_error_loads_no_stage(tmp_path, argv):
    status, modules = _modules_after("from trendgram.cli import run; status = run(sys.argv[1:])",
                                     *argv, cwd=tmp_path)
    assert status == "1"
    assert modules.isdisjoint(f"trendgram.{stage}" for stage in STAGES)
    assert "csv" not in modules
    assert not (tmp_path / "c.csv").exists()


@pytest.fixture()
def fresh_cli(monkeypatch):
    """`trendgram.cli` imported anew, as in a process that has run no command."""
    monkeypatch.setattr(trendgram, "cli", trendgram.cli)
    monkeypatch.delitem(sys.modules, "trendgram.cli")
    return importlib.import_module("trendgram.cli")


def test_traced_cli_names_resolve_before_any_command(fresh_cli, request, monkeypatch):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "bench"))
    tracing = importlib.import_module("tracing")
    names = [attr for module, attr, _, _ in tracing.TARGETS if module.__name__ == "trendgram.cli"]
    assert "build_table" in names and "read_records" in names
    assert not set(names) & set(vars(fresh_cli))
    for name in names:
        stage_function = getattr(fresh_cli, name)
        assert stage_function.__module__ != "trendgram.cli"
        assert stage_function is getattr(sys.modules[stage_function.__module__], name)


@pytest.fixture()
def fresh_trends(monkeypatch):
    """`trendgram.trends` imported anew, as in a process that has built no catalog."""
    monkeypatch.setattr(trendgram, "trends", trendgram.trends)
    monkeypatch.delitem(sys.modules, "trendgram.trends")
    return importlib.import_module("trendgram.trends")


def test_traced_trends_names_are_the_ones_build_catalog_calls(fresh_trends, request, monkeypatch,
                                                              tmp_path):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "bench"))
    tracing = importlib.import_module("tracing")
    names = [attr for module, attr, _, _ in tracing.TARGETS if module.__name__ == "trendgram.trends"]
    assert sorted(names) == ["evaluate", "render_plot"]
    assert not set(names) & set(vars(fresh_trends))
    calls = []
    for name in names:
        original = getattr(fresh_trends, name)
        assert original is getattr(sys.modules[original.__module__], name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(fresh_trends, name, wrapper)
    table = build_table({(1, "code", 2000): 2, (1, "code", 2001): 3, (1, "test", 2001): 1})
    assert len(fresh_trends.build_catalog(table, 2, tmp_path)) == 2
    assert calls == ["evaluate", "render_plot"] * 2


@pytest.mark.parametrize("name, argv", [
    ("parse_bibtex", ["ingest", "--bibtex", "{demo}/demo.bib", "-o", "{tmp}/c.csv"]),
    ("count_ngrams", ["extract", "-i", "{tmp}/corpus.csv", "-o", "{tmp}/r.csv"]),
    ("top_ngrams", ["top", "-i", "{tmp}/records.csv", "-n", "1"]),
])
def test_a_wrapper_patched_before_the_first_command_is_called(
        fresh_cli, monkeypatch, records_csv, demo_dir, name, argv):
    original = getattr(fresh_cli, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(fresh_cli, name, wrapper)
    argv = [arg.format(demo=demo_dir, tmp=records_csv.parent) for arg in argv]
    assert fresh_cli.run(argv) == 0
    assert calls and getattr(fresh_cli, name) is wrapper


@pytest.mark.parametrize("module", ["trendgram", "trendgram.cli", "trendgram.trends"])
def test_an_unknown_name_is_an_attribute_error_naming_its_module(module):
    message = f"module '{module}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
        getattr(importlib.import_module(module), "no_such_name")


# Every public name, under the module that defines it: those
# `trendgram/__init__.py` exported when it imported each stage up front,
# `token_runs`, `Prefix` and `query_ngrams`, less the second definitions of
# the window and stopword rule and of the trend slope (and its error) and
# `query_lengths`, which CHANGES.md names.
PACKAGE_EXPORTS = {
    "errors": ("IngestError", "QueryError", "RecordsError", "TrendgramError"),
    "frequency": ("FrequencySeries", "Query", "QuerySeries", "SeriesPoint", "evaluate", "freq",
                  "freq_list", "parse_query", "query_ngrams", "write_series_csv",
                  "write_series_json"),
    "ingest": ("Diagnostic", "Entry", "MergeReport", "filter_incomplete", "merge_dedup",
               "normalized_title", "parse_bibtex", "parse_csv", "parse_endnote", "read_corpus",
               "write_corpus"),
    "ngrams": ("Stoplist", "count_ngrams", "token_runs", "write_records"),
    "table": ("FrequencyTable", "NgramRecord", "Prefix", "build_table", "read_records",
              "read_table", "top_ngrams"),
    "plotting": ("render_plot",),
    "textprep": ("Sentence", "entry_sentences", "remove_articles", "split_sentences", "tokenize"),
    "trends": ("TrendEntry", "build_catalog", "rank_trends"),
}


def test_package_exports_every_public_name():
    exports = [name for names in PACKAGE_EXPORTS.values() for name in names]
    for module, names in PACKAGE_EXPORTS.items():
        for name in names:  # from trendgram import name
            value = getattr(__import__("trendgram", fromlist=[name]), name)
            assert value.__module__ == f"trendgram.{module}"
            assert value is getattr(importlib.import_module(f"trendgram.{module}"), name)
    assert sorted(trendgram.__all__) == sorted(exports)
    assert set(exports) <= set(dir(trendgram))
    assert trendgram.__version__ == "0.1.0"


def test_names_imported_from_ngrams_resolve_there_as_defined(request):
    """`from trendgram.ngrams import X` still works for every X that the
    benchmark, the golden script and the README import that way, and
    gives the object the defining module holds."""
    root = request.config.rootpath
    sources = [*sorted((root / "bench").glob("*.py")), root / "tests" / "make_goldens.py",
               root / "README.md"]
    names = {name for source in sources
             for group in re.findall(r"from trendgram\.ngrams import ([\w ,]+)",
                                     source.read_text(encoding="utf-8"))
             for name in map(str.strip, group.split(",")) if name}
    assert {"NGRAM_MAX", "Stoplist", "count_ngrams"} <= names
    ngrams = importlib.import_module("trendgram.ngrams")
    for name in names:
        value = getattr(ngrams, name)
        home = "trendgram._limits" if name == "NGRAM_MAX" else value.__module__
        assert value is getattr(importlib.import_module(home), name)


def test_package_modules_use_every_name_they_import():
    """Every name a module of the package imports at module level is used
    in that module, so none is imported only to be exported again, and
    no module has a `from __future__` directive."""
    unused, directives = [], []
    for path in sorted(Path(trendgram.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                directives.append(path.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {name}" for alias in node.names
                           if (name := alias.asname or alias.name.partition(".")[0]) not in used]
    assert (unused, directives) == ([], [])


def test_extract_matches_library_pipeline(tmp_path, records_csv):
    entries, _ = parse_bibtex(BIB)
    sentences = [s for e in entries for s in entry_sentences(e)]
    expected = count_ngrams(sentences, Stoplist.default())
    assert build_table(read_records(records_csv)) == expected


def batch_crossing_corpus(path):
    """Write a corpus whose sentences come in same-year runs longer than
    one counting batch, with the years interleaved; return its sentences."""
    rng = random.Random(11)

    def words(count):
        return " ".join(rng.choice(WORDS + STOPPY_WORDS) for _ in range(count))

    entries = []
    for year, count in ((2001, 100), (2000, 3), (2001, 120), (2000, 70), (2002, 1)):
        for _ in range(count):  # four sentences each
            entries.append(make_entry(id=f"bibtex:{len(entries) + 1}", title=words(5),
                                      abstract=f"{words(9)}. {words(6)}.",
                                      keywords=[words(2)], year=year))
    write_corpus(entries, path)
    sentences = [s for entry in read_corpus(path) for s in entry_sentences(entry)]
    runs = [(year, len(list(run))) for year, run in groupby(s.year for s in sentences)]
    assert max(size for _, size in runs) > _BATCH and len(runs) > len(dict(runs))
    return sentences


@pytest.mark.parametrize("to_stdout", [False, True], ids=["path", "stdout"])
@pytest.mark.parametrize("nmax", [1, 2, 3, 4])
def test_extract_writes_what_the_library_writes(tmp_path, capsys, stoplist, nmax, to_stdout):
    corpus = tmp_path / "corpus.csv"
    sentences = batch_crossing_corpus(corpus)
    expected = io.StringIO()
    write_records(count_ngrams(sentences, stoplist, 1, nmax), expected)
    records = tmp_path / "records.csv"
    argv = ["extract", "-i", str(corpus), "-o", "-" if to_stdout else str(records),
            "--nmax", str(nmax)]
    assert run(argv) == 0
    written = capsys.readouterr().out if to_stdout else records.read_text(encoding="utf-8")
    assert written == expected.getvalue()


@pytest.mark.parametrize("nmax", [2, 4])
def test_extract_holds_one_length_at_a_time(tmp_path, monkeypatch, nmax):
    corpus = tmp_path / "corpus.csv"
    batch_crossing_corpus(corpus)
    counted = trendgram.cli.count_ngrams
    calls, tables = [], []

    def counting(runs, stoplist, n_min, n_max):
        assert all(table() is None for table in tables)  # every earlier length is freed
        calls.append((runs, n_min, n_max))
        table = counted(runs, stoplist, n_min, n_max)
        assert table.cells
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(trendgram.cli, "count_ngrams", counting)
    argv = ["extract", "-i", str(corpus), "-o", str(tmp_path / "records.csv"),
            "--nmax", str(nmax)]
    assert run(argv) == 0
    assert [(n_min, n_max) for _, n_min, n_max in calls] == [(n, n) for n in range(1, nmax + 1)]
    assert all(runs is calls[0][0] for runs, _, _ in calls)  # the tokens are prepared once


def test_extract_nmax_validated(tmp_path, capsys):
    assert run(["extract", "-i", "x", "-o", "y", "--nmax", "9"]) == 1


@pytest.mark.parametrize("argv", [
    ["top", "-i", "x", "-n", "9"],
    ["trends", "-i", "x", "-n", "0"],
    ["extract", "-i", "x", "-o", "y", "--nmax", "5"],
])
def test_ngram_length_out_of_range_is_usage_error(argv, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: trendgram {argv[0]} ")
    assert f"invalid choice: {argv[-1]} (choose from 1, 2, 3, 4)" in err


def test_extract_nmax_limits_length(tmp_path):
    entries, _ = parse_bibtex(BIB)
    corpus = tmp_path / "corpus.csv"
    write_corpus(entries, corpus)
    out = tmp_path / "records.csv"
    assert run(["extract", "-i", str(corpus), "-o", str(out), "--nmax", "1"]) == 0
    assert all(record.n == 1 for record in build_table(read_records(out)))


def test_extract_custom_stoplist_flag(tmp_path):
    entries, _ = parse_bibtex(BIB)
    corpus = tmp_path / "corpus.csv"
    write_corpus(entries, corpus)
    stop = tmp_path / "stop.txt"
    stop.write_text("code\n")
    out = tmp_path / "records.csv"
    assert run(["extract", "-i", str(corpus), "-o", str(out), "--stoplist", str(stop)]) == 0
    assert not any(record.ngram == "code" for record in build_table(read_records(out)))


def test_extract_stoplist_env_fallback(tmp_path, monkeypatch):
    entries, _ = parse_bibtex(BIB)
    corpus = tmp_path / "corpus.csv"
    write_corpus(entries, corpus)
    stop = tmp_path / "stop.txt"
    stop.write_text("tracing\n")
    monkeypatch.setenv("TRENDGRAM_STOPLIST", str(stop))
    out = tmp_path / "records.csv"
    assert run(["extract", "-i", str(corpus), "-o", str(out)]) == 0
    assert not any(record.ngram == "tracing" for record in build_table(read_records(out)))


@pytest.mark.parametrize("content", ["", "# only comments\n\n"], ids=["empty", "comments"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_empty_stoplist_error_names_the_file(content, via, tmp_path, monkeypatch, capsys):
    entries, _ = parse_bibtex(BIB)
    corpus = tmp_path / "corpus.csv"
    write_corpus(entries, corpus)
    stop = tmp_path / "stop.txt"
    stop.write_text(content)
    argv = ["extract", "-i", str(corpus), "-o", str(tmp_path / "records.csv")]
    if via == "flag":
        argv += ["--stoplist", str(stop)]
    else:
        monkeypatch.setenv("TRENDGRAM_STOPLIST", str(stop))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {stop}: stoplist is empty"]
    assert not (tmp_path / "records.csv").exists()


def test_query_csv_to_stdout(records_csv, capsys):
    assert run(["query", "-i", str(records_csv), "code, tracing"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("label,year,frequency,has_data\n")
    assert "code,2005," in out


def test_query_matches_library_evaluation(records_csv, tmp_path, capsys):
    assert run(["query", "-i", str(records_csv), "tracing", "--from", "2005",
                "--to", "2006"]) == 0
    out = capsys.readouterr().out
    table = build_table(read_records(records_csv))
    import io
    buffer = io.StringIO()
    write_series_csv(evaluate(table, parse_query("tracing"), (2005, 2006)), buffer)
    assert out == buffer.getvalue()


def test_query_json_output(records_csv, tmp_path):
    out = tmp_path / "series.json"
    assert run(["query", "-i", str(records_csv), "code", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload[0]["label"] == "code"


def test_query_svg_output(records_csv, tmp_path):
    svg = tmp_path / "plot.svg"
    assert run(["query", "-i", str(records_csv), "code, tracing",
                "--svg", str(svg), "-o", str(tmp_path / "s.csv")]) == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "code, tracing" in text


def unwritable_render(series, title):
    """A plot that fails to encode as UTF-8 once its file is open."""
    return "<svg>\udcff</svg>\n"


@pytest.mark.parametrize("command", ["query", "demo"])
def test_svg_write_failure_leaves_the_old_plot(records_csv, tmp_path, monkeypatch, command):
    out = tmp_path / "out"
    out.mkdir()
    svg = out / ("q.svg" if command == "query" else "demo-1-case-study.svg")
    svg.write_bytes(b"<svg>old</svg>\n")
    argv = (["query", "-i", str(records_csv), "code", "--svg", str(svg)] if command == "query"
            else ["demo", "-i", str(records_csv), "-o", str(out)])
    monkeypatch.setattr(trendgram.cli, "render_plot", unwritable_render)
    with pytest.raises(UnicodeEncodeError):
        run(argv)
    assert sorted(p.name for p in out.iterdir()) == [svg.name]
    assert svg.read_bytes() == b"<svg>old</svg>\n"


def test_svg_in_a_missing_directory_is_data_error(records_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["query", "-i", str(records_csv), "code", "--svg", "nodir/q.svg"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: [Errno 2] No such file or directory: 'nodir/q.svg'")


def test_query_bad_query_is_data_error(records_csv, capsys):
    assert run(["query", "-i", str(records_csv), "x++y"]) == 2
    assert "empty phrase" in capsys.readouterr().err


def test_query_that_is_not_utf8_is_data_error(records_csv, tmp_path, capsys):
    # On a UTF-8 locale, the argument byte 0xff arrives as a lone surrogate.
    series, svg = tmp_path / "s.csv", tmp_path / "p.svg"
    assert run(["query", "-i", str(records_csv), "program\udcff", "-o", str(series),
                "--svg", str(svg)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: query is not UTF-8 text (byte 0xff)"]
    assert not series.exists() and not svg.exists()


@pytest.mark.parametrize("argv, message", [
    (["query", "-i", "{records}", "code", "-o", "{tmp}/s.csv"],
     "records file has no years; pass --from and --to"),
    (["catalog", "-i", "{records}", "-o", "{tmp}/catalog"],
     "records file has no records to catalog"),
], ids=["query", "catalog"])
def test_records_with_only_a_header_is_data_error(argv, message, tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("n,ngram,year,count\n")
    assert run([arg.format(records=records, tmp=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "catalog").exists()


@pytest.mark.parametrize("kind, argv", [
    ("corpus", ["extract", "-i", "{bad}", "-o", "{tmp}/r.csv"]),
    ("records", ["top", "-i", "{bad}"]),
])
def test_empty_file_is_data_error(kind, argv, tmp_path, capsys):
    bad = tmp_path / f"{kind}.csv"
    bad.write_bytes(b"")
    assert run([arg.format(bad=bad, tmp=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {kind} file is empty"]
    assert not (tmp_path / "r.csv").exists()


def test_extract_corpus_row_with_six_columns_is_data_error(tmp_path, capsys):
    bad = tmp_path / "corpus.csv"
    bad.write_text("id,source,year,title,abstract,keywords,authors\nx,csv,2000,T,A,\n")
    assert run(["extract", "-i", str(bad), "-o", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:2: expected 7 columns, got 6"]
    assert not (tmp_path / "r.csv").exists()


def test_query_corrupt_records_is_data_error(tmp_path, capsys):
    bad = tmp_path / "records.csv"
    bad.write_text("n,ngram,year,count\n1,two words,2000,3\n")
    assert run(["query", "-i", str(bad), "x"]) == 2
    assert f"{bad}:2: " in capsys.readouterr().err


def test_extract_corrupt_corpus_is_data_error(tmp_path, capsys):
    bad = tmp_path / "corpus.csv"
    bad.write_text("id,source,year,title,abstract,keywords,authors\n"
                   "x,csv,2000,T,A,,\nx,web,2000,T,A,,\n")
    assert run(["extract", "-i", str(bad), "-o", str(tmp_path / "r.csv")]) == 2
    assert f"{bad}:3: unknown source 'web'" in capsys.readouterr().err


def test_query_reversed_range_is_usage_error(records_csv):
    assert run(["query", "-i", str(records_csv), "x", "--from", "2010", "--to", "2000"]) == 1


def test_top_output_format(records_csv, capsys):
    assert run(["top", "-i", str(records_csv), "-n", "1", "-k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1. code 4"
    assert lines[1] == "2. tracing 4"
    assert len(lines) == 3
    assert all(line.split(". ", 1)[0] == str(i + 1) for i, line in enumerate(lines))


def test_trends_output_format(records_csv, capsys):
    assert run(["trends", "-i", str(records_csv), "-n", "1", "-k", "2",
                "--min-support", "1", "--min-years", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rank,ngram,slope,total_count"
    assert lines[1].startswith("1,")
    assert len(lines[1].split(",")) == 4


def test_catalog_writes_plots_and_index(records_csv, tmp_path, capsys):
    out = tmp_path / "catalog"
    assert run(["catalog", "-i", str(records_csv), "-o", str(out), "--limit", "3"]) == 0
    assert (out / "index.html").exists()
    assert sorted(p.name for p in out.glob("*.svg")) == ["0001.svg", "0002.svg", "0003.svg"]
    assert "wrote 3 plots" in capsys.readouterr().err


def test_demo_writes_five_svgs(records_csv, tmp_path):
    out = tmp_path / "plots"
    assert run(["demo", "-i", str(records_csv), "-o", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.svg"))
    assert files == [
        "demo-1-case-study.svg",
        "demo-2-static-analysis.svg",
        "demo-3-feature-location.svg",
        "demo-4-program-slicing.svg",
        "demo-5-legacy.svg",
    ]
    assert len(DEMO_QUERIES) == 5
    for number, text in enumerate(DEMO_QUERIES, 1):
        matching = [f for f in files if f.startswith(f"demo-{number}-")]
        assert len(matching) == 1
        assert text in (out / matching[0]).read_text()


@pytest.mark.parametrize("output, directory", [(None, ""), ("./plots/", "plots/")],
                         ids=["default", "dot-slash"])
def test_demo_names_each_plot_it_wrote(records_csv, tmp_path, monkeypatch, capsys, output,
                                       directory):
    monkeypatch.chdir(tmp_path)
    assert run(["demo", "-i", str(records_csv), *(["-o", output] if output else [])]) == 0
    slugs = ["case-study", "static-analysis", "feature-location", "program-slicing", "legacy"]
    assert capsys.readouterr().err.splitlines() == [
        f"wrote {directory}demo-{number}-{slug}.svg" for number, slug in enumerate(slugs, 1)]


def test_readme_quick_start_runs(demo_dir, tmp_path, monkeypatch, capsys):
    readme = (demo_dir.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("trendgram ")]
    assert [argv[0] for argv in commands] == [
        "ingest", "extract", "top", "query", "trends", "catalog", "demo"]
    after = lines[lines.index("# stderr:") + 1:]
    report = [line.lstrip("#").strip() for line in takewhile(lambda line: line.startswith("#"), after)]
    assert report
    shutil.copytree(demo_dir, tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv) == 0, argv
        err = capsys.readouterr().err
        if argv[0] == "ingest":
            assert err.splitlines() == report


def test_full_pipeline_matches_golden_directory(demo_dir, golden_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    records = tmp_path / "records.csv"
    series = tmp_path / "series-case-study.csv"
    assert run(["ingest",
                "--bibtex", str(demo_dir / "demo.bib"),
                "--csv", str(demo_dir / "demo.csv"),
                "--endnote", str(demo_dir / "demo.enw"),
                "-o", str(corpus)]) == 0
    assert run(["extract", "-i", str(corpus), "-o", str(records)]) == 0
    assert run(["query", "-i", str(records), DEMO_QUERIES[0], "-o", str(series)]) == 0
    assert run(["demo", "-i", str(records), "-o", str(tmp_path)]) == 0
    capsys.readouterr()

    golden = golden_dir / "demo"
    assert corpus.read_bytes() == (golden / "corpus.csv").read_bytes()
    assert records.read_bytes() == (golden / "records.csv").read_bytes()
    assert series.read_bytes() == (golden / "series-case-study.csv").read_bytes()
    for svg in sorted(golden.glob("demo-*.svg")):
        assert (tmp_path / svg.name).read_bytes() == svg.read_bytes()


def test_catalog_matches_golden_directory(golden_dir, tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_bytes((golden_dir / "demo" / "records.csv").read_bytes())
    out = tmp_path / "catalog"
    assert run(["catalog", "-i", str(records), "-o", str(out), "--limit", "12"]) == 0
    capsys.readouterr()

    golden = golden_dir / "demo" / "catalog"
    names = sorted(path.name for path in golden.iterdir())
    assert len(names) == 13
    assert sorted(path.name for path in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("stale", [
    lambda old: old + b"x" * 9000,  # every existing file longer than the new one
    lambda old: old[:len(old) // 2],  # every existing file shorter
], ids=["longer", "shorter"])
def test_catalog_rewrites_existing_files_to_the_golden_bytes(golden_dir, tmp_path, capsys, stale):
    records = tmp_path / "records.csv"
    records.write_bytes((golden_dir / "demo" / "records.csv").read_bytes())
    golden = golden_dir / "demo" / "catalog"
    fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
    rewritten.mkdir()
    for path in golden.iterdir():
        (rewritten / path.name).write_bytes(stale(path.read_bytes()))
    for out in (fresh, rewritten):
        assert run(["catalog", "-i", str(records), "-o", str(out), "--limit", "12"]) == 0
    capsys.readouterr()

    names = sorted(path.name for path in golden.iterdir())
    assert sorted(path.name for path in rewritten.iterdir()) == names
    for name in names:
        expected = (golden / name).read_bytes()
        assert (fresh / name).read_bytes() == expected, name
        assert (rewritten / name).read_bytes() == expected, name


@pytest.mark.parametrize("name", sorted(TEXT_GOLDENS))
def test_top_and_trends_match_their_goldens(golden_dir, tmp_path, capsys, name):
    records = tmp_path / "records.csv"
    records.write_bytes((golden_dir / "demo" / "records.csv").read_bytes())
    assert run([*TEXT_GOLDENS[name], "-i", str(records)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (golden_dir / "demo" / name).read_bytes()


def test_headline_series_match_their_golden_with_and_without_the_index(golden_dir, tmp_path):
    records = tmp_path / "records.csv"
    records.write_bytes((golden_dir / "demo" / "records.csv").read_bytes())
    golden = (golden_dir / "demo" / "series-headline.csv").read_bytes()
    for read in ("parsed", "indexed"):
        series = tmp_path / f"{read}.csv"
        assert run(["query", "-i", str(records), HEADLINE_QUERY, "-o", str(series)]) == 0
        assert Path(f"{records}.idx").is_file()
        assert series.read_bytes() == golden, read


def test_demo_records_rank_the_papers_headline_trends(golden_dir, tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_bytes((golden_dir / "demo" / "records.csv").read_bytes())

    def ranked(direction):
        assert run([*TEXT_GOLDENS[f"trends-{direction}.csv"], "-i", str(records)]) == 0
        return [row.split(",")[1] for row in capsys.readouterr().out.splitlines()[1:]]

    rising, falling = ranked("rising"), ranked("falling")
    assert rising[0] == "open source" and rising[2] == "feature location"
    assert falling[1] == "program slicing" and falling[2] == "legacy systems"


# `main` ends its process with `os._exit`, so the tests run it in a child.
MAIN = "from trendgram.cli import main; main()"


def _main_env(unbuffered=False):
    """A child's environment: trendgram from this checkout, and standard
    output buffered as usual or, with `unbuffered`, as PYTHONUNBUFFERED
    leaves it."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(trendgram.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _main_signalled_while_writing(argv, marker, signum):
    """Run `main` on `argv` in a child and send it `signum` once the output
    file's temporary file is open; return its status and standard error.

    The child touches `marker` there, then waits for the signal. It
    restores Python's Ctrl-C handler, which a child started with SIGINT
    ignored (as by a shell's background job) would not have."""
    child = "\n".join([
        "import signal, time",
        "import trendgram.ngrams as ngrams",
        "from trendgram.cli import main",
        "signal.signal(signal.SIGINT, signal.default_int_handler)",
        "quoted_rows = ngrams._quoted_rows",
        "def writing(*args):",
        f"    open({str(marker)!r}, 'w').close()",
        "    time.sleep(60)",
        "    return quoted_rows(*args)",
        "ngrams._quoted_rows = writing",
        "main()",
    ])
    process = subprocess.Popen([sys.executable, "-c", child, *argv], stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True, env=_main_env())
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert process.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        process.send_signal(signum)
        _, err = process.communicate(timeout=60)
    finally:
        process.kill()
        process.wait()
    return process.returncode, err


def test_ctrl_c_ends_main_with_130_and_keeps_the_old_output(records_csv, tmp_path, monkeypatch):
    old = records_csv.read_bytes()
    argv = ["extract", "-i", str(tmp_path / "corpus.csv"), "-o", str(records_csv)]

    def interrupted(table, dest):
        with open_for_write(dest) as fh:
            fh.write("n,ngram,year,count\n")
            raise KeyboardInterrupt

    monkeypatch.setattr(trendgram.cli, "write_records", interrupted)
    with pytest.raises(KeyboardInterrupt):  # in-process callers still see it
        run(argv)
    assert records_csv.read_bytes() == old
    assert not list(tmp_path.glob(".*.tmp"))

    status, err = _main_signalled_while_writing(argv, tmp_path / "writing", signal.SIGINT)
    assert status == 130
    assert err == "error: interrupted\n"
    assert records_csv.read_bytes() == old
    assert not list(tmp_path.glob(".*.tmp"))


def test_sigterm_ends_main_with_143_and_keeps_the_old_output(records_csv, tmp_path):
    old = records_csv.read_bytes()
    argv = ["extract", "-i", str(tmp_path / "corpus.csv"), "-o", str(records_csv)]
    status, err = _main_signalled_while_writing(argv, tmp_path / "writing", signal.SIGTERM)
    assert status == 143
    assert [line for line in err.splitlines() if line.startswith("error:")] == ["error: terminated"]
    assert "Traceback" not in err
    assert records_csv.read_bytes() == old
    assert not list(tmp_path.glob(".*.tmp"))


def test_main_loads_no_signal_module(records_csv):
    # `signal` builds enum classes on import; `main` needs only `_signal`.
    child = "\n".join([
        "import os, sys",
        "exit = os._exit",
        "def exiting(status):",
        "    print(status, 'signal' in sys.modules, flush=True)",
        "    exit(0)",
        "os._exit = exiting",
        "from trendgram.cli import main",
        "main()",
    ])
    result = subprocess.run([sys.executable, "-S", "-c", child, "top", "-i", "records.csv"],
                            capture_output=True, text=True, env=_main_env(),
                            cwd=records_csv.parent, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv", [
    ["top", "-i", "{tmp}/records.csv", "-n", "1", "-k", "100000"],
    ["extract", "-i", "{tmp}/corpus.csv", "-o", "-"],
])
def test_closed_stdout_ends_main_quietly_with_141(records_csv, tmp_path, argv):
    # The reader of standard output is gone before the command writes,
    # as when `| head` has exited: no message, no traceback, status 141.
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    for unbuffered in (False, True):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-c", MAIN, *argv], stdout=write_end, stderr=subprocess.PIPE,
                text=True, env=_main_env(unbuffered), check=False)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, ""), unbuffered


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["top", "-i", "{tmp}/records.csv", "-k", "5"],  # fits the buffer: fails at the last flush
    ["extract", "-i", "{golden}/corpus.csv", "-o", "-"],  # 35 KB: fails inside the command first
])
def test_a_failed_write_to_stdout_ends_main_with_one_error_and_2(records_csv, golden_dir, tmp_path,
                                                                 argv):
    argv = [arg.format(tmp=tmp_path, golden=golden_dir / "demo") for arg in argv]
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-c", MAIN, *argv], stdout=full,
                                stderr=subprocess.PIPE, text=True, env=_main_env(), check=False)
    message = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert (result.returncode, result.stderr) == (2, message)


INGEST_REPORT = ["total_in: 30", "incomplete_removed: 2", "duplicates_removed: 3", "total_out: 25"]


@pytest.mark.parametrize("argv, report", [
    (["extract", "-i", "{tmp}/corpus.csv", "-o", "{tmp}/fresh.csv"], []),
    (["extract", "-i", "{tmp}/corpus.csv", "-o", "-"], []),
    (["ingest", "--bibtex", "{demo}/demo.bib", "--csv", "{demo}/demo.csv",
      "--endnote", "{demo}/demo.enw", "-o", "-"], INGEST_REPORT),
    (["query", "-i", "{tmp}/records.csv", "code"], []),
], ids=["extract-file", "extract-stdout", "ingest-stdout", "query-stdout"])
def test_main_started_with_stdout_closed_ends_with_the_commands_status(records_csv, demo_dir,
                                                                       tmp_path, argv, report):
    # Python sets `sys.stdout` to None when file descriptor 1 is closed at
    # start; what a command writes there is dropped.
    argv = [arg.format(demo=demo_dir, tmp=tmp_path) for arg in argv]
    fresh = tmp_path / "fresh.csv"
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-c", MAIN, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=_main_env(),
        check=False)
    assert (result.returncode, result.stderr.splitlines()) == (0, report)
    if str(fresh) in argv:
        assert fresh.read_bytes() == records_csv.read_bytes()


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True],
                                    ids=["buffered", "unbuffered"])


def _run_main(argv, unbuffered):
    return subprocess.run([sys.executable, "-c", MAIN, *map(str, argv)], capture_output=True,
                          env=_main_env(unbuffered), check=False)


@BUFFERING
def test_main_through_pipes_writes_the_demo_goldens(demo_dir, golden_dir, tmp_path, unbuffered):
    golden = golden_dir / "demo"
    ingest = _run_main(["ingest", "--bibtex", demo_dir / "demo.bib", "--csv", demo_dir / "demo.csv",
                        "--endnote", demo_dir / "demo.enw", "-o", "-"], unbuffered)
    assert (ingest.returncode, ingest.stdout) == (0, (golden / "corpus.csv").read_bytes())
    assert ingest.stderr.decode().splitlines() == INGEST_REPORT
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(ingest.stdout)
    extract = _run_main(["extract", "-i", corpus, "-o", "-"], unbuffered)
    assert (extract.returncode, extract.stdout, extract.stderr) == (
        0, (golden / "records.csv").read_bytes(), b"")
    records = tmp_path / "records.csv"
    records.write_bytes(extract.stdout)
    for name, argv in TEXT_GOLDENS.items():
        result = _run_main([*argv, "-i", records], unbuffered)
        assert (result.returncode, result.stdout, result.stderr) == (
            0, (golden / name).read_bytes(), b""), name


@BUFFERING
def test_main_output_larger_than_a_pipe_buffer_arrives_whole(tmp_path, unbuffered):
    rng = random.Random(25)
    entries = [make_entry(id=f"bibtex:{index}", year=2000 + index,
                          abstract=" ".join(rng.choice(WORDS) for _ in range(200)) + ".")
               for index in range(6)]
    corpus = tmp_path / "corpus.csv"
    write_corpus(entries, corpus)
    expected = tmp_path / "records.csv"
    assert run(["extract", "-i", str(corpus), "-o", str(expected)]) == 0
    assert expected.stat().st_size > 64 * 1024
    result = _run_main(["extract", "-i", corpus, "-o", "-"], unbuffered)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected.read_bytes(), b"")


@BUFFERING
@pytest.mark.parametrize("argv, status", [
    (["top", "-i", "{tmp}/records.csv", "-n", "9"], 1),
    (["top", "-i", "{tmp}/missing.csv"], 2),
], ids=["usage", "data"])
def test_main_errors_end_with_their_status(records_csv, tmp_path, argv, status, unbuffered):
    result = _run_main([arg.format(tmp=tmp_path) for arg in argv], unbuffered)
    assert (result.returncode, result.stdout) == (status, b"")
    assert result.stderr.decode().splitlines()[-1].startswith("error: ")
    assert b"Traceback" not in result.stderr


# A child that runs `main`, after checking that descriptor 2 is then the
# null device: a `run` started otherwise ends the child with status 99.
MAIN_CHECKING_STDERR = "\n".join([
    "import os, trendgram.cli as cli",
    "run = cli.run",
    "def checked():",
    "    try:",
    "        held = os.path.samestat(os.fstat(2), os.stat(os.devnull))",
    "    except OSError:  # descriptor 2 closed",
    "        held = False",
    "    if not held:",
    "        os._exit(99)",
    "    return run()",
    "cli.run = checked",
    "cli.main()",
])


@pytest.mark.parametrize("redirect", [
    "2>&-",
    "2</dev/null",
    pytest.param("2>/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                          reason="needs /dev/full")),
], ids=["closed", "read-only", "full"])
@pytest.mark.parametrize("argv, status", [
    (["ingest", "--bibtex", "{demo}/demo.bib", "-o", "-"], 0),
    (["top", "-i", "{tmp}/records.csv", "-n", "9"], 1),
    (["top", "-i", "{tmp}/missing.csv"], 2),
], ids=["ok", "usage", "data"])
def test_main_started_without_stderr_drops_diagnostics_and_keeps_its_status(
        records_csv, demo_dir, tmp_path, redirect, argv, status):
    # With descriptor 2 closed, Python sets `sys.stderr` to None; a shell
    # script that execs the interpreter can leave it open for reading only;
    # on /dev/full every write to it fails.
    argv = [arg.format(demo=demo_dir, tmp=tmp_path) for arg in argv]
    result = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-c", MAIN_CHECKING_STDERR,
         *argv], capture_output=True, env=_main_env(), check=False)
    expected = _run_main(argv, unbuffered=False)
    assert expected.returncode == status and expected.stderr
    assert (result.returncode, result.stdout) == (status, expected.stdout)


@pytest.mark.parametrize("argv, status, golden", [
    (["top", "-i", "{tmp}/records.csv", "-n", "9"], 1, None),
    (["top", "-i", "{tmp}/records.csv", "-k", "0"], 1, None),
    (["top", "-i", "{tmp}/missing.csv"], 2, None),
    (["ingest", "--bibtex", "{demo}/demo.bib", "--csv", "{demo}/demo.csv",
      "--endnote", "{demo}/demo.enw", "-o", "-"], 0, "corpus.csv"),
], ids=["argparse-usage", "usage", "data", "ingest"])
def test_run_with_stderr_none_drops_diagnostics_and_keeps_its_status(
        records_csv, demo_dir, golden_dir, tmp_path, capsys, monkeypatch, argv, status, golden):
    # As an embedding caller may leave it, and as Python does when file
    # descriptor 2 is closed at start.
    argv = [arg.format(demo=demo_dir, tmp=tmp_path) for arg in argv]
    monkeypatch.setattr(sys, "stderr", None)
    try:
        assert run(argv) == status
    finally:
        sys.stderr.close()  # the null device `run` put there
    expected = (golden_dir / "demo" / golden).read_text() if golden else ""
    assert capsys.readouterr().out == expected


def test_closed_output_makes_run_return_141_quietly(records_csv, monkeypatch, capsys):
    def closed(*args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(trendgram.cli, "top_ngrams", closed)
    assert run(["top", "-i", str(records_csv)]) == 141
    assert capsys.readouterr().err == ""


def test_pipeline_composition_equals_library_calls(demo_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    assert run(["ingest", "--bibtex", str(demo_dir / "demo.bib"),
                "--csv", str(demo_dir / "demo.csv"),
                "--endnote", str(demo_dir / "demo.enw"),
                "-o", str(corpus)]) == 0
    capsys.readouterr()

    bib_entries, _ = parse_bibtex((demo_dir / "demo.bib").read_text(),
                                  year_range=(2000, 2014))
    csv_entries, _ = parse_csv((demo_dir / "demo.csv").read_text(),
                               year_range=(2000, 2014))
    enw_entries, _ = parse_endnote((demo_dir / "demo.enw").read_text(),
                                   year_range=(2000, 2014))
    merged, _ = merge_dedup([bib_entries, csv_entries, enw_entries])
    assert read_corpus(corpus) == merged
