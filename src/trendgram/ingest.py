"""Readers for bibliographic metadata exports and the merge/dedup stage.

Three export formats are accepted: a small BibTeX subset, delimited CSV
with a configurable column mapping, and EndNote refer files. Parsing is
tolerant where the data is dirty: a broken record becomes a `Diagnostic`
and is skipped, and the remaining records are still returned. Structural
problems (a mapped CSV column that does not exist, a corrupt corpus
file) raise `IngestError` instead.

The BibTeX subset is deliberately small: `@type{key, field = {value}}`
records with braced, quoted, or bare values. There is no `@string`
expansion and no cross-referencing; TeX control words are dropped from
values rather than decoded.
"""

from __future__ import annotations

import csv
import io
import re
from collections import namedtuple

from ._io import checked_csv, open_for_write
from ._limits import DEFAULT_YEAR_RANGE
from .errors import IngestError

SOURCES = ("bibtex", "csv", "endnote")

CORPUS_HEADER = ("id", "source", "year", "title", "abstract", "keywords", "authors")

# Column names used by IEEE Xplore CSV exports. The keywords column must
# be the author-supplied one, not the automatically assigned keywords.
DEFAULT_CSV_MAPPING = {
    "title": "Document Title",
    "abstract": "Abstract",
    "keywords": "Author Keywords",
    "year": "Publication Year",
    "authors": "Authors",
}

# The entry fields a CSV mapping may name; title and year are required.
CSV_FIELDS = ("title", "abstract", "keywords", "year", "authors")
_CSV_REQUIRED = ("title", "year")


# `keywords` and `authors` are lists of strings.
Entry = namedtuple("Entry", "id title abstract keywords year authors source")
Entry.__doc__ = "One bibliographic record, uniform across source formats."


class Diagnostic(namedtuple("Diagnostic", "line message")):
    """A non-fatal per-record parse problem."""

    __slots__ = ()

    def __str__(self):
        return f"line {self.line}: {self.message}"


MergeReport = namedtuple("MergeReport", "total_in incomplete_removed duplicates_removed total_out")


def _make_entry(source, ordinal, title, abstract, keywords, authors, year_text,
                year_range):
    """Validate the common fields and build an Entry, or explain why not."""
    year_text = year_text.strip()
    if not year_text:
        return None, "missing year"
    try:
        year = int(year_text)
    except ValueError:
        return None, f"non-numeric year {year_text!r}"
    if year_range is not None and not year_range[0] <= year <= year_range[1]:
        return None, f"year {year} outside range {year_range[0]}-{year_range[1]}"
    if not title:
        return None, "missing title"
    entry = Entry(
        id=f"{source}:{ordinal}",
        title=title,
        abstract=abstract,
        keywords=keywords,
        year=year,
        authors=authors,
        source=source,
    )
    return entry, None


def _collect(source, records, year_range, start_ordinal):
    """`(entries, diagnostics)` of a parser's `records`, `(line, label,
    fields)` each: `fields` are `_make_entry`'s title, abstract,
    keywords, authors and year text, and a refused record is reported as
    `label: problem`; a record with `fields` None could not be read, and
    `label` says why. Entries are numbered from `start_ordinal`."""
    entries: list[Entry] = []
    diagnostics: list[Diagnostic] = []
    for line, label, fields in records:
        if fields is None:
            diagnostics.append(Diagnostic(line, label))
            continue
        entry, problem = _make_entry(source, start_ordinal + len(entries), *fields, year_range)
        if problem:
            diagnostics.append(Diagnostic(line, f"{label}: {problem}"))
        else:
            entries.append(entry)
    return entries, diagnostics


# ---------------------------------------------------------------------------
# BibTeX

_SKIPPED_RECORD_TYPES = {"string", "preamble", "comment"}
# A record starts at an `@` that does not follow a letter, digit, `.`,
# `_`, `-` or `+` (an e-mail address); group 2 is its opening brace.
_RECORD_START_RE = re.compile(r"(?<![\w.+-])@([\w-]*)\s*(\{)?")
_BRACE_RE = re.compile("[{}]")
_SPLIT_MARK_RE = re.compile('[{}",]')
_TEX_COMMAND_RE = re.compile(r"\\[A-Za-z]+\s*")
_TEX_ESCAPE_RE = re.compile(r"\\(.)")
_AUTHOR_SEP_RE = re.compile(r"\s+and\s+|;", re.IGNORECASE)
_KEYWORD_SEP_RE = re.compile(r"[;,]")
_SEMICOLON_RE = re.compile(";")


def parse_bibtex(text, year_range=None, start_ordinal=1):
    """Parse `@type{key, field = {value}, ...}` records into entries.

    Recognized fields: title, abstract, keywords (split on `;` or `,`),
    year, author (names split on ` and ` or `;`); anything else is
    ignored. Records with unbalanced braces, a missing or non-numeric
    year, an out-of-range year, or no title produce a `Diagnostic` and
    are skipped; parsing resumes at the next record.
    An `@` right after a letter, digit, `.`, `_`, `-` or `+` belongs to
    an e-mail address in free text and starts no record.

    Returns `(entries, diagnostics)`.
    """
    return _collect("bibtex", _bibtex_records(text), year_range, start_ordinal)


def _bibtex_records(text):
    """`(line, label, fields)` for each record of `text` (see `_collect`)."""
    pos = 0
    line, line_start = 1, 0  # the line number of text[line_start]
    closing = _closing_braces(text)
    while match := _RECORD_START_RE.search(text, pos):
        at = match.start()
        line += text.count("\n", line_start, at)
        line_start = at
        end = closing.get(match.end() - 1) if match[2] else None
        if end is None:
            yield line, "unbalanced braces in record", None
            pos = _resync(text, at)
            continue
        pos = end + 1
        if match[1].lower() in _SKIPPED_RECORD_TYPES:
            continue
        body = text[match.end():end]
        fields = _record_fields(body)
        key = body.partition(",")[0].strip() or "?"
        yield line, f"record '{key}'", (
            fields.get("title", ""),
            fields.get("abstract", ""),
            _split_on(fields.get("keywords", ""), _KEYWORD_SEP_RE),
            _split_on(fields.get("author", ""), _AUTHOR_SEP_RE),
            fields.get("year", ""),
        )


def _closing_braces(text):
    """Each `{` of `text`, by index, mapped to the index of the brace
    that closes it; a `{` that never closes is absent. One pass over the
    text answers every record: scanning each record's braces on its own
    would be quadratic when records never close, as each scan would run
    to the end of the text."""
    closing, opened = {}, []
    for brace in _BRACE_RE.finditer(text):
        if brace[0] == "{":
            opened.append(brace.start())
        elif opened:
            closing[opened.pop()] = brace.start()
    return closing


def _resync(text, at):
    """Skip past a broken record: resume at the next line-initial '@'."""
    nxt = text.find("\n@", at + 1)
    return len(text) if nxt == -1 else nxt + 1


def _record_fields(body):
    fields: dict[str, str] = {}
    rest = body.partition(",")[2]
    for chunk in _split_top_level(rest):
        name, eq, raw = chunk.partition("=")
        if not eq:
            continue
        fields[name.strip().lower()] = _clean_value(raw)
    return fields


def _split_top_level(text):
    """Split on commas that are outside braces and quotes."""
    chunks = []
    depth = 0
    in_quotes = False
    start = 0
    for mark in _SPLIT_MARK_RE.finditer(text):
        ch = mark[0]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth = max(depth - 1, 0)
        elif depth == 0 and ch == '"':
            in_quotes = not in_quotes
        elif depth == 0 and not in_quotes:
            chunks.append(text[start:mark.start()])
            start = mark.end()
    chunks.append(text[start:])
    return [c for c in (chunk.strip() for chunk in chunks) if c]


def _clean_value(raw):
    """Strip value delimiters and TeX markup, collapse whitespace runs."""
    value = raw.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        value = value[1:-1]
    value = _TEX_COMMAND_RE.sub("", value)
    value = _TEX_ESCAPE_RE.sub(r"\1", value)
    value = value.replace("{", "").replace("}", "").replace("~", " ")
    return " ".join(value.split())


def _split_on(value, pattern):
    return [item for item in (part.strip() for part in pattern.split(value)) if item]


# ---------------------------------------------------------------------------
# CSV

def parse_csv(text, mapping=None, year_range=None, start_ordinal=1):
    """Parse a delimited export whose header row is mapped to entry fields.

    `mapping` takes logical field names (title, abstract, keywords, year,
    authors) to header column names and defaults to the IEEE Xplore
    layout; title and year are mandatory. A mapped column missing from
    the header raises `IngestError`. Keyword and author cells are split
    on `;`. Rows with a bad year become diagnostics and are skipped.
    """
    mapping = DEFAULT_CSV_MAPPING if mapping is None else mapping
    check_csv_mapping(mapping)
    reader = csv.reader(io.StringIO(text, newline=None))
    rows = _checked_rows(reader)
    try:
        header = next(rows)
    except StopIteration:
        return [], []
    positions = {}
    for field, column in mapping.items():
        if column not in header:
            raise IngestError(f"column {column!r} (mapped from '{field}') not in CSV header")
        positions[field] = header.index(column)

    def cell(row, field):
        pos = positions.get(field)
        if pos is None or pos >= len(row):
            return ""
        return row[pos].strip()

    records = ((reader.line_num, "row skipped", (
        cell(row, "title"),
        cell(row, "abstract"),
        _split_on(cell(row, "keywords"), _SEMICOLON_RE),
        _split_on(cell(row, "authors"), _SEMICOLON_RE),
        cell(row, "year"),
    )) for row in rows if any(c.strip() for c in row))
    return _collect("csv", records, year_range, start_ordinal)


def check_csv_mapping(mapping):
    """Raise `IngestError` unless `mapping` names only `CSV_FIELDS` and
    includes title and year."""
    unknown = sorted(set(mapping) - set(CSV_FIELDS))
    if unknown:
        raise IngestError(f"unknown field(s) in CSV mapping: {', '.join(unknown)}"
                          f" (fields are {', '.join(CSV_FIELDS)})")
    for field in _CSV_REQUIRED:
        if field not in mapping:
            raise IngestError(f"CSV mapping must include '{field}'")


def _checked_rows(reader):
    """The rows of a csv reader; text it cannot split into fields (such
    as a field over the csv module's size limit) raises `IngestError`
    with the line number."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(str(exc), reader.line_num) from None


# ---------------------------------------------------------------------------
# EndNote (refer format)

# The tags read, each with the separator that joins an untagged line to its value.
_ENDNOTE_JOINERS = {"%T": " ", "%A": " ", "%D": " ", "%K": "\n", "%X": " "}
_ENDNOTE_KEYWORD_SEP_RE = re.compile(r"[;\n]")
_LINE_END_RE = re.compile(r"\r\n?|\n")
_OTHER_LINE_BREAK_RE = re.compile("[\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def parse_endnote(text, year_range=None, start_ordinal=1):
    """Parse refer-style tagged records separated by blank lines.

    Tags: %T title, %A author (repeatable, split on `;`), %D year, %K
    keywords (split on `;` or newline), %X abstract. Untagged lines
    continue the previous tag's value; unknown tags are ignored.

    A diagnostic names the line a record starts on, counted at `\\n`,
    `\\r\\n` and `\\r`. Other line breaks, such as `\\x0c` and U+2028, end
    a tag's line too but are not counted.
    """
    return _collect("endnote", _endnote_records(text), year_range, start_ordinal)


def _endnote_records(text):
    """`(line, label, fields)` for each run of non-blank lines."""
    current: list[str] = []
    start = 0
    for number, line in enumerate(_LINE_END_RE.split(text), 1):
        for piece in _OTHER_LINE_BREAK_RE.split(line):
            if piece.strip():
                if not current:
                    start = number
                current.append(piece)
            elif current:
                yield start, "record skipped", _endnote_fields(current)
                current = []
    if current:
        yield start, "record skipped", _endnote_fields(current)


def _endnote_fields(lines):
    # One list per tag, starting with the value of a tag that never
    # appears; `current` is the list an untagged line continues.
    values = {tag: [""] for tag in _ENDNOTE_JOINERS}
    current = None
    for line in lines:
        if line.startswith("%") and len(line) >= 2:
            tag = line[:2]
            current = values.get(tag)
            if current is not None:
                current.append(line[2:].strip())
        elif current is not None and (extra := line.strip()):
            current[-1] += _ENDNOTE_JOINERS[tag] + extra
    return (
        values["%T"][-1],
        values["%X"][-1],
        _split_on("\n".join(values["%K"]), _ENDNOTE_KEYWORD_SEP_RE),
        _split_on(";".join(values["%A"]), _SEMICOLON_RE),
        values["%D"][-1],
    )


# ---------------------------------------------------------------------------
# Filtering, merging, deduplication

def filter_incomplete(entries):
    """Keep entries with at least one author and a non-empty abstract."""
    kept = [entry for entry in entries if entry.authors and entry.abstract]
    return kept, len(entries) - len(kept)


def normalized_title(title):
    """Dedup key: casefold, drop non-alphanumerics, collapse whitespace."""
    folded = title.casefold()
    cleaned = "".join(ch for ch in folded if ch.isalnum() or ch.isspace())
    return " ".join(cleaned.split())


def _completeness(entry):
    return sum((bool(entry.abstract), bool(entry.keywords), bool(entry.authors)))


def merge_dedup(entry_lists):
    """Concatenate source lists, drop incomplete entries, deduplicate.

    Two entries are duplicates when their normalized titles and years
    are equal. The most complete record (non-empty abstract / keywords /
    authors) survives; on a tie, the one seen first. Returns
    `(entries, MergeReport)`.
    """
    pooled = [entry for entries in entry_lists for entry in entries]
    complete, incomplete_removed = filter_incomplete(pooled)
    survivors: dict[tuple[str, int], Entry] = {}
    for entry in complete:
        key = (normalized_title(entry.title), entry.year)
        current = survivors.get(key)
        if current is None or _completeness(entry) > _completeness(current):
            survivors[key] = entry
    merged = list(survivors.values())
    report = MergeReport(
        total_in=len(pooled),
        incomplete_removed=incomplete_removed,
        duplicates_removed=len(complete) - len(merged),
        total_out=len(merged),
    )
    return merged, report


# ---------------------------------------------------------------------------
# Canonical corpus file

def write_corpus(entries, dest):
    """Write entries as the canonical corpus CSV, preserving order.

    Keywords and authors are `;`-joined inside their cells, so the
    items themselves must not contain semicolons; the parsers split
    both on `;`, so no entry they return holds one.

    A row with a `\r` in any cell is written with every cell quoted: the
    writer quotes a cell for a comma, a quote or its line terminator
    `\n`, not for a `\r`, which unquoted would end the row for the reader.
    """
    with open_for_write(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(CORPUS_HEADER)
        for entry in entries:
            row = [
                entry.id,
                entry.source,
                str(entry.year),
                entry.title,
                entry.abstract,
                ";".join(entry.keywords),
                ";".join(entry.authors),
            ]
            (quoted if any("\r" in cell for cell in row) else writer).writerow(row)


def read_corpus(source):
    """Read a canonical corpus CSV back into entries.

    The corpus file is machine-produced, so any malformation is fatal;
    the `IngestError` names the file (when `source` is a path) and the
    offending line.
    """
    entries = []
    with checked_csv(source, CORPUS_HEADER, IngestError, "corpus") as reader:
        for row in reader:
            if len(row) != len(CORPUS_HEADER):
                raise IngestError(f"expected {len(CORPUS_HEADER)} columns, got {len(row)}")
            entry_id, source_name, year_text, title, abstract, keywords, authors = row
            if source_name not in SOURCES:
                raise IngestError(f"unknown source {source_name!r}")
            try:
                year = int(year_text)
            except ValueError:
                raise IngestError(f"non-numeric year {year_text!r}") from None
            entries.append(Entry(
                id=entry_id,
                title=title,
                abstract=abstract,
                keywords=_split_on(keywords, _SEMICOLON_RE),
                year=year,
                authors=_split_on(authors, _SEMICOLON_RE),
                source=source_name,
            ))
    return entries
