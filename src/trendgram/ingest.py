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
from typing import NamedTuple

from ._io import checked_csv, open_for_write
from .errors import IngestError

SOURCES = ("bibtex", "csv", "endnote")

CORPUS_HEADER = ("id", "source", "year", "title", "abstract", "keywords", "authors")

DEFAULT_YEAR_RANGE = (2000, 2014)

# Column names used by IEEE Xplore CSV exports. The keywords column must
# be the author-supplied one, not the automatically assigned keywords.
DEFAULT_CSV_MAPPING = {
    "title": "Document Title",
    "abstract": "Abstract",
    "keywords": "Author Keywords",
    "year": "Publication Year",
    "authors": "Authors",
}

CSV_FIELDS = ("title", "abstract", "keywords", "year", "authors")
_CSV_REQUIRED = ("title", "year")


class Entry(NamedTuple):
    """One bibliographic record, uniform across source formats."""

    id: str
    title: str
    abstract: str
    keywords: list[str]
    year: int
    authors: list[str]
    source: str


class Diagnostic(NamedTuple):
    """A non-fatal per-record parse problem."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class MergeReport(NamedTuple):
    total_in: int
    incomplete_removed: int
    duplicates_removed: int
    total_out: int


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
    entries: list[Entry] = []
    diagnostics: list[Diagnostic] = []
    ordinal = start_ordinal
    pos = 0
    line, line_start = 1, 0  # the line number of text[line_start]
    while match := _RECORD_START_RE.search(text, pos):
        at = match.start()
        line += text.count("\n", line_start, at)
        line_start = at
        end = _record_body(text, match.end()) if match[2] else None
        if end is None:
            diagnostics.append(Diagnostic(line, "unbalanced braces in record"))
            pos = _resync(text, at)
            continue
        pos = end + 1
        if match[1].lower() in _SKIPPED_RECORD_TYPES:
            continue
        body = text[match.end():end]
        fields = _record_fields(body)
        entry, problem = _make_entry(
            "bibtex",
            ordinal,
            title=fields.get("title", ""),
            abstract=fields.get("abstract", ""),
            keywords=_split_on(fields.get("keywords", ""), _KEYWORD_SEP_RE),
            authors=_split_on(fields.get("author", ""), _AUTHOR_SEP_RE),
            year_text=fields.get("year", ""),
            year_range=year_range,
        )
        if problem:
            key = body.partition(",")[0].strip() or "?"
            diagnostics.append(Diagnostic(line, f"record '{key}': {problem}"))
            continue
        entries.append(entry)
        ordinal += 1
    return entries, diagnostics


def _record_body(text, start):
    """The end of the record body that starts at `text[start]`, just
    past its opening brace: the index of its closing brace, or None
    when its braces never balance."""
    depth = 1
    for brace in _BRACE_RE.finditer(text, start):
        depth += 1 if brace[0] == "{" else -1
        if depth == 0:
            return brace.start()
    return None


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
    unknown = sorted(set(mapping) - set(CSV_FIELDS))
    if unknown:
        raise IngestError(f"unknown field(s) in CSV mapping: {', '.join(unknown)}")
    for field in _CSV_REQUIRED:
        if field not in mapping:
            raise IngestError(f"CSV mapping must include '{field}'")

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

    entries: list[Entry] = []
    diagnostics: list[Diagnostic] = []
    ordinal = start_ordinal
    for row in rows:
        if not any(c.strip() for c in row):
            continue
        entry, problem = _make_entry(
            "csv",
            ordinal,
            title=cell(row, "title"),
            abstract=cell(row, "abstract"),
            keywords=_split_on(cell(row, "keywords"), _SEMICOLON_RE),
            authors=_split_on(cell(row, "authors"), _SEMICOLON_RE),
            year_text=cell(row, "year"),
            year_range=year_range,
        )
        if problem:
            diagnostics.append(Diagnostic(reader.line_num, f"row skipped: {problem}"))
            continue
        entries.append(entry)
        ordinal += 1
    return entries, diagnostics


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


def parse_endnote(text, year_range=None, start_ordinal=1):
    """Parse refer-style tagged records separated by blank lines.

    Tags: %T title, %A author (repeatable, split on `;`), %D year, %K
    keywords (split on `;` or newline), %X abstract. Untagged lines
    continue the previous tag's value; unknown tags are ignored.
    """
    entries: list[Entry] = []
    diagnostics: list[Diagnostic] = []
    ordinal = start_ordinal
    for start_line, lines in _endnote_records(text):
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
        entry, problem = _make_entry(
            "endnote",
            ordinal,
            title=values["%T"][-1],
            abstract=values["%X"][-1],
            keywords=_split_on("\n".join(values["%K"]), _ENDNOTE_KEYWORD_SEP_RE),
            authors=_split_on(";".join(values["%A"]), _SEMICOLON_RE),
            year_text=values["%D"][-1],
            year_range=year_range,
        )
        if problem:
            diagnostics.append(Diagnostic(start_line, f"record skipped: {problem}"))
            continue
        entries.append(entry)
        ordinal += 1
    return entries, diagnostics


def _endnote_records(text):
    records = []
    current: list[str] = []
    start = 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            if not current:
                start = number
            current.append(line)
        elif current:
            records.append((start, current))
            current = []
    if current:
        records.append((start, current))
    return records


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
    """
    with open_for_write(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CORPUS_HEADER)
        for entry in entries:
            writer.writerow([
                entry.id,
                entry.source,
                entry.year,
                entry.title,
                entry.abstract,
                ";".join(entry.keywords),
                ";".join(entry.authors),
            ])


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
