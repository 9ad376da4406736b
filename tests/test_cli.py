from __future__ import annotations

import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import trendgram
import trendgram.cli

from make_goldens import TEXT_GOLDENS
from trendgram._io import open_for_write
from trendgram.cli import DEMO_QUERIES, run
from trendgram.frequency import evaluate, parse_query, write_series_csv
from trendgram.ingest import (merge_dedup, parse_bibtex, parse_csv,
                              parse_endnote, read_corpus, write_corpus)
from trendgram.ngrams import Stoplist, build_table, count_ngrams, read_records
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
    assert "nope" in capsys.readouterr().err


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
              "importlib.resources", "hashlib", "html")
    loaded = sorted(name for name in with_cli - bare
                    if any(name == root or name.startswith(root + ".") for root in unused))
    assert loaded == []


def _modules_after(code, *argv, cwd=None):
    """The `trendgram.*` modules and `json` that a fresh interpreter holds
    after running `code`, which may set `status`; and that status."""
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    listing = ("print(globals().get('status'), *sorted(name for name in sys.modules "
               "if name == 'json' or name.startswith('trendgram.')))")
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


@pytest.mark.parametrize("argv, loaded, unloaded", [
    (["ingest", "--bibtex", "{demo}/demo.bib", "--csv", "{demo}/demo.csv",
      "--endnote", "{demo}/demo.enw", "-o", "c.csv"],
     ["ingest"], ["ngrams", "textprep", "frequency", "plotting", "trends"]),
    (["extract", "-i", "corpus.csv", "-o", "r.csv"],
     ["ingest", "textprep", "ngrams"], ["frequency", "plotting", "trends"]),
    (["top", "-i", "records.csv", "-n", "2"],
     ["ngrams"], ["ingest", "frequency", "plotting", "trends"]),
    (["query", "-i", "records.csv", "code", "-o", "series.csv"],
     ["frequency", "ngrams"], ["plotting", "json"]),
    (["query", "-i", "records.csv", "code", "--svg", "q.svg"],
     ["frequency", "plotting"], ["json"]),
    (["trends", "-i", "records.csv", "--min-support", "1", "--min-years", "1"],
     ["ngrams", "trends"], ["ingest", "textprep", "frequency", "plotting"]),
    (["catalog", "-i", "records.csv", "-o", "catalog", "--limit", "3"],
     ["ngrams", "trends", "frequency", "plotting"], ["ingest"]),
    (["demo", "-i", "records.csv", "-o", "plots"],
     ["frequency", "ngrams", "plotting"], ["ingest", "trends", "json"]),
])
def test_each_command_loads_only_its_stages(records_csv, demo_dir, argv, loaded, unloaded):
    argv = [arg.format(demo=demo_dir) for arg in argv]
    status, modules = _modules_after("from trendgram.cli import run; status = run(sys.argv[1:])",
                                     *argv, cwd=records_csv.parent)
    assert status == "0"
    assert {f"trendgram.{stage}" for stage in loaded} <= modules
    assert modules.isdisjoint(name if name == "json" else f"trendgram.{name}"
                              for name in unloaded)


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


# Every name `trendgram/__init__.py` exported when it imported each stage up front.
PACKAGE_EXPORTS = (
    "IngestError", "QueryError", "RecordsError", "SlopeError", "TrendgramError",
    "FrequencySeries", "Query", "QuerySeries", "SeriesPoint", "evaluate", "freq", "freq_list",
    "parse_query", "query_lengths", "write_series_csv", "write_series_json",
    "Diagnostic", "Entry", "MergeReport", "filter_incomplete", "merge_dedup",
    "normalized_title", "parse_bibtex", "parse_csv", "parse_endnote", "read_corpus",
    "write_corpus",
    "FrequencyTable", "NgramRecord", "Stoplist", "build_table", "count_ngrams", "ngrams_of",
    "passes_stopword_rule", "read_records", "read_table", "top_ngrams", "write_records",
    "render_plot",
    "Sentence", "entry_sentences", "remove_articles", "split_sentences", "tokenize",
    "TrendEntry", "build_catalog", "rank_trends", "trend_slope",
)


def test_package_exports_every_public_name():
    for name in PACKAGE_EXPORTS:
        value = getattr(__import__("trendgram", fromlist=[name]), name)  # from trendgram import name
        assert value is getattr(sys.modules[value.__module__], name)
    assert sorted(trendgram.__all__) == sorted(PACKAGE_EXPORTS)
    assert set(PACKAGE_EXPORTS) <= set(dir(trendgram))
    assert trendgram.__version__ == "0.1.0"


def test_extract_matches_library_pipeline(tmp_path, records_csv):
    entries, _ = parse_bibtex(BIB)
    sentences = [s for e in entries for s in entry_sentences(e)]
    expected = count_ngrams(sentences, Stoplist.default())
    assert build_table(read_records(records_csv)) == expected


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


def test_demo_records_rank_the_papers_headline_trends(golden_dir, tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_bytes((golden_dir / "demo" / "records.csv").read_bytes())

    def ranked(direction):
        assert run([*TEXT_GOLDENS[f"trends-{direction}.csv"], "-i", str(records)]) == 0
        return [row.split(",")[1] for row in capsys.readouterr().out.splitlines()[1:]]

    rising, falling = ranked("rising"), ranked("falling")
    assert rising[0] == "open source" and rising[2] == "feature location"
    assert falling[1] == "program slicing" and falling[2] == "legacy systems"


def test_ctrl_c_ends_main_with_130_and_keeps_the_old_output(records_csv, tmp_path, monkeypatch,
                                                            capsys):
    old = records_csv.read_bytes()
    argv = ["extract", "-i", str(tmp_path / "corpus.csv"), "-o", str(records_csv)]

    def interrupted(table, dest):
        with open_for_write(dest) as fh:
            fh.write("n,ngram,year,count\n")
            raise KeyboardInterrupt

    monkeypatch.setattr(trendgram.cli, "write_records", interrupted)
    with pytest.raises(KeyboardInterrupt):  # in-process callers still see it
        run(argv)
    monkeypatch.setattr(sys, "argv", ["trendgram", *argv])
    with pytest.raises(BaseException) as raised:  # a KeyboardInterrupt must not stop pytest
        trendgram.cli.main()
    assert raised.type is SystemExit and raised.value.code == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert records_csv.read_bytes() == old
    assert not list(tmp_path.glob(".*.tmp"))


def test_sigterm_ends_main_with_143_and_keeps_the_old_output(records_csv, tmp_path):
    # The child touches a marker file once the records' temporary file is
    # open, then waits there for the signal.
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    old = records_csv.read_bytes()
    marker = tmp_path / "writing"
    child = "\n".join([
        "import time",
        "import trendgram.ngrams as ngrams",
        "from trendgram.cli import main",
        "quoted_rows = ngrams._quoted_rows",
        "def writing(*args):",
        f"    open({str(marker)!r}, 'w').close()",
        "    time.sleep(60)",
        "    return quoted_rows(*args)",
        "ngrams._quoted_rows = writing",
        "main()",
    ])
    argv = ["extract", "-i", str(tmp_path / "corpus.csv"), "-o", str(records_csv)]
    process = subprocess.Popen([sys.executable, "-c", child, *argv], stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True,
                               env={**os.environ, "PYTHONPATH": src})
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert process.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        process.send_signal(signal.SIGTERM)
        _, err = process.communicate(timeout=60)
    finally:
        process.kill()
        process.wait()
    assert process.returncode == 143
    assert [line for line in err.splitlines() if line.startswith("error:")] == ["error: terminated"]
    assert "Traceback" not in err
    assert records_csv.read_bytes() == old
    assert not list(tmp_path.glob(".*.tmp"))


@pytest.mark.parametrize("argv", [
    ["top", "-i", "{tmp}/records.csv", "-n", "1", "-k", "100000"],
    ["extract", "-i", "{tmp}/corpus.csv", "-o", "-"],
])
def test_closed_stdout_ends_main_quietly_with_141(records_csv, tmp_path, argv):
    # The reader of standard output is gone before the command writes,
    # as when `| head` has exited: no message, no traceback, status 141.
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-c", "from trendgram.cli import main; main()", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=False)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")


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
