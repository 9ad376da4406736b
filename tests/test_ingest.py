from __future__ import annotations

import io
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trendgram
from oracle import naive_corpus_text, naive_parse_bibtex
from support import make_entry
from trendgram.errors import IngestError
from trendgram.ingest import (Diagnostic, filter_incomplete, merge_dedup,
                              normalized_title, parse_bibtex, parse_csv,
                              parse_endnote, read_corpus, write_corpus)

# ---------------------------------------------------------------------------
# BibTeX


@pytest.mark.parametrize("name, fields", [
    ("Entry", dict(id="csv:1", title="T", abstract="A", keywords=["k"], year=2005,
                   authors=["X"], source="csv")),
    ("Diagnostic", dict(line=3, message="x")),
    ("MergeReport", dict(total_in=4, incomplete_removed=1, duplicates_removed=1,
                         total_out=2)),
    ("Sentence", dict(tokens=["code"], origin="title", entry_id="csv:1", year=2005)),
    ("QuerySeries", dict(label="code", phrases=[("code",)])),
    ("Query", dict(series=[])),
    ("FrequencySeries", dict(label="code", points={})),
    ("TrendEntry", dict(ngram="code", n=1, slope=0.5, total_count=30)),
])
def test_record_types_are_immutable_named_tuples(name, fields):
    record = getattr(trendgram, name)(**fields)
    assert record == tuple(fields.values())
    assert record._asdict() == fields
    with pytest.raises(AttributeError):
        setattr(record, next(iter(fields)), None)


def test_diagnostic_str_names_the_line():
    assert str(Diagnostic(3, "x")) == "line 3: x"


def test_parse_bibtex_minimal_record():
    entries, diagnostics = parse_bibtex(
        "@article{a1, title={A Tool}, abstract={We build.}, author={A. B.}, year={2005}}")
    assert diagnostics == []
    assert len(entries) == 1
    entry = entries[0]
    assert entry.title == "A Tool"
    assert entry.abstract == "We build."
    assert entry.year == 2005
    assert entry.authors == ["A. B."]
    assert entry.keywords == []
    assert entry.source == "bibtex"
    assert entry.id == "bibtex:1"


def test_parse_bibtex_empty_file():
    assert parse_bibtex("") == ([], [])


def test_parse_bibtex_unbalanced_brace_fixture():
    text = (
        "@article{ok1, title={First}, abstract={A.}, author={X}, year={2005}}\n"
        "@article{bad, title={Broken, abstract={B.}, author={Y}, year={2006}\n"
        "@article{ok2, title={Third}, abstract={C.}, author={Z}, year={2007}}\n"
    )
    # an e-mail address in free text starts no record
    for trailer in ("", "Contact: some.one@example.org\n"):
        entries, diagnostics = parse_bibtex(text + trailer)
        assert [e.title for e in entries] == ["First", "Third"]
        assert len(diagnostics) == 1
        assert diagnostics[0].line == 2
        assert "unbalanced" in diagnostics[0].message


def test_parse_bibtex_missing_and_bad_year():
    text = (
        "@article{a, title={T1}, abstract={A.}, author={X}}\n"
        "@article{b, title={T2}, abstract={A.}, author={X}, year={MMVI}}\n"
        "@article{c, title={T3}, abstract={A.}, author={X}, year={2006}}\n"
    )
    entries, diagnostics = parse_bibtex(text)
    assert [e.title for e in entries] == ["T3"]
    assert len(diagnostics) == 2
    assert "missing year" in diagnostics[0].message
    assert "'a'" in diagnostics[0].message
    assert "non-numeric year" in diagnostics[1].message


def test_parse_bibtex_diagnostic_line_after_several_records():
    good = "@article{g, title={T}, abstract={A.}, author={X}, year={2005}}\n"
    text = good + "\n" + good + "Contact: a.b@example.org\n@article{bad, title={T}}\n" + good
    entries, diagnostics = parse_bibtex(text)
    assert len(entries) == 3
    assert [(d.line, d.message) for d in diagnostics] == [(5, "record 'bad': missing year")]


def test_parse_bibtex_missing_title():
    entries, diagnostics = parse_bibtex(
        "@article{a, abstract={A.}, author={X}, year={2005}}")
    assert entries == []
    assert len(diagnostics) == 1
    assert "missing title" in diagnostics[0].message


def test_parse_bibtex_value_styles():
    text = (
        '@article{a, title = "A Quoted, Title", year = 2004,\n'
        "  abstract={Uses {nested {braces}} and\n   wrapped lines.},\n"
        "  keywords={alpha; beta, gamma}, author={A. One and B. Two},\n"
        "  pages={1--2}, journal={Ignored}}\n"
    )
    entries, diagnostics = parse_bibtex(text)
    assert diagnostics == []
    entry = entries[0]
    assert entry.title == "A Quoted, Title"
    assert entry.abstract == "Uses nested braces and wrapped lines."
    assert entry.keywords == ["alpha", "beta", "gamma"]
    assert entry.authors == ["A. One", "B. Two"]
    assert entry.year == 2004


def test_parse_bibtex_drops_tex_commands():
    entries, _ = parse_bibtex(
        "@article{a, title={The \\textit{Big} Survey \\& More}, abstract={X.}, "
        "author={M. Sul\\'ir}, year={2005}}")
    assert entries[0].title == "The Big Survey & More"
    assert entries[0].authors == ["M. Sul'ir"]


def test_parse_bibtex_skips_string_and_comment_blocks():
    text = (
        "@string{x = {y}}\n"
        "@comment{anything at all}\n"
        "@article{a, title={T}, abstract={A.}, author={X}, year={2005}}\n"
    )
    entries, diagnostics = parse_bibtex(text)
    assert [e.title for e in entries] == ["T"]
    assert diagnostics == []


def test_parse_bibtex_year_range_enforced():
    text = (
        "@article{a, title={Old}, abstract={A.}, author={X}, year={1999}}\n"
        "@article{b, title={New}, abstract={A.}, author={X}, year={2005}}\n"
    )
    entries, diagnostics = parse_bibtex(text, year_range=(2000, 2014))
    assert [e.title for e in entries] == ["New"]
    assert "outside range" in diagnostics[0].message


def test_parse_bibtex_ordinals_continue():
    entries, _ = parse_bibtex(
        "@article{a, title={T}, abstract={A.}, author={X}, year={2005}}",
        start_ordinal=7)
    assert entries[0].id == "bibtex:7"


# Records built from parts, with field values drawn from the characters
# that steer the field split, between runs of characters that steer the
# record scan (e-mail `@`s, non-ASCII letters and digits, backslashes).
_BIBTEX_VALUE = st.lists(st.sampled_from(list('{}",= a\n\\') + ["2001", '{"}']),
                         max_size=10).map("".join)
_BIBTEX_RECORD = st.builds(
    "@{}{}{{{},{}}}".format,
    st.sampled_from(["article", "MISC", "string", "comment", "", "a-b_1"]),
    st.sampled_from(["", " ", "\n\t"]),
    st.sampled_from(["k", "", " k ", "k{", "{k}"]),
    st.lists(st.builds("{}={}".format, st.sampled_from(["title", "year", "author", "x"]),
                       _BIBTEX_VALUE), max_size=4).map(",".join),
)
_BIBTEX_TEXT = st.lists(
    st.one_of(_BIBTEX_RECORD,
              st.sampled_from(list('@@{}",=\n._-+ aX') + ["\u00e9", "\u0661", "\\"])),
    max_size=12,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_BIBTEX_TEXT, st.sampled_from([None, (2000, 2014)]), st.integers(1, 3))
@example("@article{bad, title={T, year=2001\n@article{ok, title={T}, year=2002}\n", None, 1)
@example("@x{a, title={T}, year=2001} a.@b{c} b_@b{c} c-@b{c} d+@b{c} \u00e9@b{c} \u0661@b{c} ",
         None, 1)
@example("@string{s = {v}}\n@COMMENT{x}\n@article{a, title={T}, year=2001}", None, 1)
@example("@article no brace\n@article{a, title={T}, year=2001}", None, 1)
@example('@article{a, title={A {nested {b}} "c}, year={20{0}1}}', None, 1)
@example('@article{a, title="Quoted, with comma", year=2001}', None, 1)
def test_parse_bibtex_matches_naive_scanner(text, year_range, start_ordinal):
    assert (parse_bibtex(text, year_range, start_ordinal)
            == naive_parse_bibtex(text, year_range, start_ordinal))


UNCLOSED = "@article{x, title={T}, year=2001\n"


def test_parse_bibtex_is_linear_in_records_that_never_close():
    # Scanning each unclosed record to the end of the text made 8000 of
    # them take about 40 s of CPU; one pass over the braces answers all.
    text = UNCLOSED * 8000 + "@article{ok, title={T}, year=2002}\n"
    started = time.process_time()
    entries, diagnostics = parse_bibtex(text)
    elapsed = time.process_time() - started
    assert [entry.title for entry in entries] == ["T"]
    assert diagnostics == [Diagnostic(line, "unbalanced braces in record")
                           for line in range(1, 8001)]
    assert elapsed < 2.0
    short = UNCLOSED * 50 + "@article{ok, title={T}, year=2002}\n" + UNCLOSED * 50
    assert parse_bibtex(short) == naive_parse_bibtex(short)


# ---------------------------------------------------------------------------
# CSV

CSV_HEADER = "Document Title,Authors,Publication Year,Abstract,Author Keywords\n"


def test_parse_csv_quoted_title():
    text = CSV_HEADER + '"A, B",X. Author,2005,Some abstract.,kw one;kw two\n'
    entries, diagnostics = parse_csv(text)
    assert diagnostics == []
    entry = entries[0]
    assert entry.title == "A, B"
    assert entry.keywords == ["kw one", "kw two"]
    assert entry.authors == ["X. Author"]
    assert entry.id == "csv:1"


def test_parse_csv_header_only():
    assert parse_csv(CSV_HEADER) == ([], [])


def test_parse_csv_bad_year_row():
    rows = [f"Title {i},A. Author,200{i},Abstract.,\n" for i in range(4)]
    rows.insert(2, 'Bad Title,A. Author,"n/a",Abstract.,\n')
    entries, diagnostics = parse_csv(CSV_HEADER + "".join(rows))
    assert len(entries) == 4
    assert len(diagnostics) == 1
    assert "non-numeric year" in diagnostics[0].message
    assert diagnostics[0].line == 4


def test_parse_csv_missing_mapped_column():
    with pytest.raises(IngestError, match="Author Keywords"):
        parse_csv("Document Title,Authors,Publication Year,Abstract\nT,A,2005,X\n")


def test_parse_csv_unknown_mapping_field():
    with pytest.raises(IngestError) as raised:
        parse_csv(CSV_HEADER, mapping={"titel": "Document Title", "year": "Publication Year"})
    assert str(raised.value) == ("unknown field(s) in CSV mapping: titel"
                                 " (fields are title, abstract, keywords, year, authors)")


def test_parse_csv_mapping_requires_title_and_year():
    for mapping, missing in (({"year": "Publication Year"}, "title"),
                             ({"title": "Document Title"}, "year")):
        with pytest.raises(IngestError) as raised:
            parse_csv(CSV_HEADER, mapping=mapping)
        assert str(raised.value) == f"CSV mapping must include '{missing}'"


def test_parse_csv_custom_mapping():
    text = "t,y\nSome Title,2003\n"
    entries, _ = parse_csv(text, mapping={"title": "t", "year": "y"})
    assert entries[0].title == "Some Title"
    assert entries[0].abstract == ""
    assert entries[0].year == 2003


def test_parse_csv_doubled_quotes():
    text = CSV_HEADER + '"He said ""hi""",A,2005,Abstract.,\n'
    entries, _ = parse_csv(text)
    assert entries[0].title == 'He said "hi"'


# ---------------------------------------------------------------------------
# EndNote


def test_parse_endnote_minimal_record():
    entries, diagnostics = parse_endnote("%T T\n%A A\n%D 2010\n%X Abs.\n")
    assert diagnostics == []
    assert len(entries) == 1
    assert entries[0].title == "T"
    assert entries[0].authors == ["A"]
    assert entries[0].year == 2010
    assert entries[0].abstract == "Abs."
    assert entries[0].id == "endnote:1"


def test_parse_endnote_empty_file():
    assert parse_endnote("") == ([], [])


def test_parse_endnote_missing_year_record():
    text = "%T First\n%A A\n%D 2010\n%X X.\n\n%T Second\n%A B\n%X Y.\n"
    entries, diagnostics = parse_endnote(text)
    assert [e.title for e in entries] == ["First"]
    assert len(diagnostics) == 1
    assert diagnostics[0].line == 6
    assert "missing year" in diagnostics[0].message


def test_parse_endnote_repeated_and_split_tags():
    text = (
        "%T A Title\n"
        "%A First Author\n"
        "%A Second Author\n"
        "%D 2008\n"
        "%K alpha; beta\n"
        "%K gamma\n"
        "%X An abstract\n"
        "that wraps.\n"
    )
    entries, _ = parse_endnote(text)
    entry = entries[0]
    assert entry.authors == ["First Author", "Second Author"]
    assert entry.keywords == ["alpha", "beta", "gamma"]
    assert entry.abstract == "An abstract that wraps."


@pytest.mark.parametrize("lines, field, expected", [
    (["%T T", "%K alpha; beta", "gamma delta; epsilon"], "keywords",
     ["alpha", "beta", "gamma delta", "epsilon"]),
    (["%T T", "%A First", "Last", "%A Second"], "authors", ["First Last", "Second"]),
    (["%T Title", "%Z unknown", "dropped"], "title", "Title"),
    (["dropped", "%T Title"], "title", "Title"),
    (["%T One", "wrapped", "%T Two"], "title", "Two"),
    (["%T Title", "%"], "title", "Title %"),
], ids=["keywords-newline", "authors-space", "unknown-tag", "before-any-tag",
        "last-title-wins", "bare-percent"])
def test_parse_endnote_continuation_lines(lines, field, expected):
    (entry,), _ = parse_endnote("\n".join(lines + ["%D 2010", "%X Abs."]) + "\n")
    assert getattr(entry, field) == expected


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029"])
def test_parse_endnote_counts_only_newlines_as_lines(brk):
    # A break inside the first record must not move the second off line 6.
    text = f"%T First\n%A A\n%D 2010\n%X One{brk}two.\n\n%T Second\n%A B\n%X Y.\n"
    entries, diagnostics = parse_endnote(text)
    assert [entry.abstract for entry in entries] == ["One two."]
    assert diagnostics == [Diagnostic(6, "record skipped: missing year")]


# ---------------------------------------------------------------------------
# Filtering and dedup


def test_filter_incomplete_empty():
    assert filter_incomplete([]) == ([], 0)


def test_filter_incomplete_drops_missing_abstract():
    assert filter_incomplete([make_entry(abstract="")]) == ([], 1)


def test_filter_incomplete_mixed():
    entries = [
        make_entry(id="a", authors=[]),
        make_entry(id="b"),
        make_entry(id="c", authors=[]),
        make_entry(id="d"),
    ]
    kept, removed = filter_incomplete(entries)
    assert [e.id for e in kept] == ["b", "d"]
    assert removed == 2


def test_merge_dedup_most_complete_survives():
    plain = make_entry(id="x", title="Shared Title", year=2005)
    richer = make_entry(id="y", title="SHARED, title!", year=2005, keywords=["kw"])
    merged, report = merge_dedup([[plain], [richer]])
    assert [e.id for e in merged] == ["y"]
    assert report.duplicates_removed == 1
    assert report.total_in == 2
    assert report.total_out == 1


def test_merge_dedup_tie_keeps_first():
    first = make_entry(id="x", title="Shared", year=2005, keywords=["k1"])
    second = make_entry(id="y", title="shared", year=2005, keywords=["k2"])
    merged, _ = merge_dedup([[first], [second]])
    assert [e.id for e in merged] == ["x"]


def test_merge_dedup_disjoint_titles():
    merged, report = merge_dedup([
        [make_entry(id="a", title="One")],
        [make_entry(id="b", title="Two")],
    ])
    assert len(merged) == 2
    assert report.duplicates_removed == 0


def test_merge_dedup_same_title_different_year_kept():
    merged, report = merge_dedup([[
        make_entry(id="a", title="Same", year=2005),
        make_entry(id="b", title="Same", year=2006),
    ]])
    assert len(merged) == 2
    assert report.duplicates_removed == 0


def test_merge_dedup_idempotent():
    entries = [
        make_entry(id="a", title="One", year=2005),
        make_entry(id="b", title="one", year=2005, keywords=["k"]),
        make_entry(id="c", title="Two", year=2006),
    ]
    merged, _ = merge_dedup([entries])
    again, report = merge_dedup([merged])
    assert again == merged
    assert report.duplicates_removed == 0
    assert report.incomplete_removed == 0


def test_merge_report_arithmetic():
    entries = [
        make_entry(id="a", abstract=""),
        make_entry(id="b", title="Dup", year=2000),
        make_entry(id="c", title="dup!", year=2000),
        make_entry(id="d", title="Solo"),
    ]
    _, report = merge_dedup([entries])
    assert report.total_out == report.total_in - report.incomplete_removed - report.duplicates_removed


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(5)), st.data())
def test_merge_dedup_count_is_permutation_stable(order, data):
    titles = ["One", "Two", "one", "TWO", "Two?"]
    entries = [make_entry(id=f"e{i}", title=titles[i % len(titles)],
                          year=2005, keywords=["k"] * (i % 2))
               for i in range(5)]
    lists = [[entries[i]] for i in range(5)]
    _, base = merge_dedup(lists)
    _, permuted = merge_dedup([lists[i] for i in order])
    assert permuted.duplicates_removed == base.duplicates_removed
    assert permuted.total_out == base.total_out


def test_normalized_title_rules():
    assert normalized_title("A  Tool: For X!") == "a tool for x"
    assert normalized_title("Model-Driven") == "modeldriven"
    assert normalized_title("") == ""


# ---------------------------------------------------------------------------
# Canonical corpus file


def test_corpus_header_bytes():
    buffer = io.StringIO()
    write_corpus([], buffer)
    assert buffer.getvalue() == "id,source,year,title,abstract,keywords,authors\n"


def test_corpus_roundtrip_simple():
    entries = [
        make_entry(id="bibtex:1", title="With, comma", keywords=["a b", "c"]),
        make_entry(id="csv:1", source="csv", title='Has "quotes"', authors=["X", "Y"]),
    ]
    buffer = io.StringIO()
    write_corpus(entries, buffer)
    assert read_corpus(io.StringIO(buffer.getvalue())) == entries


_FIELD_TEXT = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters=";\x00"),
    min_size=1, max_size=30,
).map(lambda s: " ".join(s.split())).filter(bool)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.builds(
        make_entry,
        id=_FIELD_TEXT,
        title=_FIELD_TEXT,
        abstract=st.one_of(st.just(""), _FIELD_TEXT),
        keywords=st.lists(_FIELD_TEXT, max_size=3),
        year=st.integers(1900, 2100),
        authors=st.lists(_FIELD_TEXT, max_size=3),
        source=st.sampled_from(["bibtex", "csv", "endnote"]),
    ),
    max_size=8,
))
@example([make_entry(title="a\rb", abstract="c\rd", keywords=["k\r1", "k2"],
                     authors=["x\ry"])])
@example([make_entry(id="bibtex:\r", title="t"), make_entry(title="no return, \"quoted\"")])
def test_corpus_roundtrip_property(entries):
    buffer = io.StringIO()
    write_corpus(entries, buffer)
    assert read_corpus(io.StringIO(buffer.getvalue())) == entries


# Cell text for the writer: its separators and quote, both line ends,
# NUL and non-ASCII text among any other characters.
_CORPUS_CHARACTERS = st.sampled_from(list(',";\n\r\x00 aé漢')) | st.characters(
    exclude_categories=("Cs",))
_CORPUS_TEXT = st.text(_CORPUS_CHARACTERS, max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.builds(
        make_entry,
        id=_CORPUS_TEXT,
        title=_CORPUS_TEXT,
        abstract=_CORPUS_TEXT,
        keywords=st.lists(_CORPUS_TEXT, max_size=3),
        year=st.integers(-10, 10**5),
        authors=st.lists(_CORPUS_TEXT, max_size=3),
        source=st.sampled_from(["bibtex", "csv", "endnote"]),
    ),
    max_size=8,
))
@example([make_entry(title="a\rb", abstract="c\rd", keywords=["k\r1", "k2"],
                     authors=["x\ry"])])
@example([make_entry(id="bibtex:\r", title="t"), make_entry(title="no return, \"quoted\"")])
@example([make_entry(title="nul\x00 naïve 漢字", abstract="", keywords=[], authors=[]),
          make_entry(title="line\nfeed", abstract='"', keywords=["a,b", ""], authors=[""])])
def test_write_corpus_matches_the_csv_module_writers(tmp_path_factory, entries):
    expected = naive_corpus_text(entries)
    buffer = io.StringIO()
    write_corpus(entries, buffer)
    assert buffer.getvalue() == expected
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    write_corpus(entries, path)
    assert path.read_bytes() == expected.encode("utf-8")


def test_read_corpus_rejects_bad_header():
    with pytest.raises(IngestError, match="header"):
        read_corpus(io.StringIO("id,source,year\n"))


def test_read_corpus_rejects_bad_year():
    text = "id,source,year,title,abstract,keywords,authors\nx,bibtex,never,T,A,,\n"
    with pytest.raises(IngestError, match="line 2"):
        read_corpus(io.StringIO(text))


def test_read_corpus_rejects_unknown_source():
    text = "id,source,year,title,abstract,keywords,authors\nx,web,2000,T,A,,\n"
    with pytest.raises(IngestError, match="web"):
        read_corpus(io.StringIO(text))


def test_parsers_roundtrip_through_corpus(tmp_path):
    bib_entries, _ = parse_bibtex(
        "@article{a, title={T, one}, abstract={A.}, author={X and Y}, year={2005}, keywords={k1; k2}}\n"
        "@a{k, title={T}, year=2001, abstract={A}, author={Doe; Jane and Roe}}")
    csv_entries, _ = parse_csv(
        'Document Title,Authors,Publication Year,Abstract,Author Keywords\n'
        '"C, title",P. Q;R. S,2006,Abstract text.,kw a;kw b\n'
        '"a\rb",X,2001,A,\r')
    enw_entries, _ = parse_endnote("%T E title\n%A Z. Z\n%A Doe; Jane\n%D 2007\n%K k\n%X Abs.\n")
    assert [e.authors for e in bib_entries] == [["X", "Y"], ["Doe", "Jane", "Roe"]]
    assert [e.title for e in csv_entries] == ["C, title", "a\nb"]
    assert enw_entries[0].authors == ["Z. Z", "Doe", "Jane"]
    entries = bib_entries + csv_entries + enw_entries
    path = tmp_path / "corpus.csv"
    write_corpus(entries, path)
    assert read_corpus(path) == entries


# Pieces of all three export formats, and characters their readers and
# the corpus writer treat specially (NUL and every line break included).
_EXPORT_TEXT = st.lists(
    st.one_of(
        st.sampled_from(list('@{}",=;%\n\r\t .-+aT1') + ["\x00", "\x0b", "\x85", "\u2028",
                                                        "\u00e9", "\u0661", "\\"]),
        st.sampled_from(["@article{k, title={T}, year=2001, author={A; B}, abstract={X}}",
                         "%T T\n%A A; B\n%D 2001\n%X X\n", 'T,"A;B",2001,X,k\n',
                         '"T\rU",A,2001,X,\r\n', "title=", "year=", "%A ", "%D 20", "\n\n"]),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=300, deadline=None)
@pytest.mark.parametrize("parse", [parse_bibtex, parse_csv, parse_endnote])
@given(prefix=st.sampled_from(["", CSV_HEADER]), body=_EXPORT_TEXT)
def test_parsers_survive_any_text(parse, prefix, body):
    text = prefix + body
    try:
        entries, diagnostics = parse(text)
    except IngestError:
        return
    lines = max(len(text.splitlines()), 1)
    assert all(1 <= diagnostic.line <= lines for diagnostic in diagnostics)
    buffer = io.StringIO()
    write_corpus(entries, buffer)
    assert read_corpus(io.StringIO(buffer.getvalue())) == entries


def test_random_entry_lists_report_invariant():
    rng = random.Random(7)
    titles = ["Alpha", "Beta", "Gamma", "alpha", "BETA"]
    for _ in range(50):
        lists = []
        for source in ("bibtex", "csv"):
            lists.append([
                make_entry(
                    id=f"{source}:{i}",
                    title=rng.choice(titles),
                    abstract=rng.choice(["", "Text."]),
                    authors=[] if rng.random() < 0.2 else ["A"],
                    year=rng.choice([2000, 2001]),
                    source=source,
                )
                for i in range(rng.randint(0, 6))
            ])
        merged, report = merge_dedup(lists)
        assert report.total_out == len(merged)
        assert report.total_out == report.total_in - report.incomplete_removed - report.duplicates_removed
        assert min(report.total_in, report.incomplete_removed,
                   report.duplicates_removed, report.total_out) >= 0
        for entry in merged:
            assert entry.authors and entry.abstract
