"""The three workloads: input sizes, command scripts and output checks.

Every command runs with the work directory as its current directory and
names files relative to it: `in/` holds the generated exports, `setup/`
the corpus and records built during set-up, `out/` what the measured
commands write. Relative paths keep stderr and outputs identical between
a child process and an in-process run.

The checks are independent of the program's own code paths: they read
the files with the `csv` module and compare with the generator's plan,
with sums computed here, and (for `render`) with the naive counting
oracle of the test suite.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

import corpus

RECORDS = "setup/records.csv"
RENDER_LIMIT = 2500
TOP_K = 20

PLANTED_RISING = " ".join(corpus.RISING)
PLANTED_FALLING = " ".join(corpus.FALLING)

_DIAGNOSTIC_RE = re.compile(r"^in/export\.(bib|csv|enw):\d+: ", re.MULTILINE)
_REPORT_RE = re.compile(r"^(total_in|incomplete_removed|duplicates_removed|total_out): (\d+)$",
                        re.MULTILINE)


INGEST_ARGS = ["ingest", "--bibtex", f"in/{corpus.BIB_NAME}", "--csv", f"in/{corpus.CSV_NAME}",
               "--endnote", f"in/{corpus.ENW_NAME}"]

# Set-up for the query-side workloads: build setup/records.csv with the CLI.
SETUP_RECORDS = [
    ("ingest", INGEST_ARGS + ["-o", "setup/corpus.csv"], ("setup/corpus.csv",)),
    ("extract", ["extract", "-i", "setup/corpus.csv", "-o", RECORDS], (RECORDS,)),
]


def _build_script():
    return [
        ("ingest", INGEST_ARGS + ["-o", "out/corpus.csv"], ("out/corpus.csv",)),
        ("extract", ["extract", "-i", "out/corpus.csv", "-o", "out/records.csv"],
         ("out/records.csv",)),
    ]


def _explore_script():
    script = [
        ("query", ["query", "-i", RECORDS, "static analysis, dynamic analysis"], ()),
        ("query", ["query", "-i", RECORDS, "review+survey, case study+experiment",
                   "-o", "out/series.json"], ("out/series.json",)),
        ("query", ["query", "-i", RECORDS, f"{PLANTED_RISING}, {PLANTED_FALLING}",
                   "-o", "out/planted.csv", "--svg", "out/planted.svg"],
         ("out/planted.csv", "out/planted.svg")),
    ]
    script += [("top", ["top", "-i", RECORDS, "-n", str(n), "-k", str(TOP_K)], ())
               for n in range(1, 5)]
    script += [("trends", ["trends", "-i", RECORDS, "-n", "2", "--direction", direction,
                           "-k", "10"], ())
               for direction in ("rising", "falling")]
    script.append(("demo", ["demo", "-i", RECORDS, "-o", "out/demo"], ("out/demo",)))
    return script


def _render_script():
    return [
        ("catalog", ["catalog", "-i", RECORDS, "-o", "out/catalog", "--limit", str(RENDER_LIMIT)],
         ("out/catalog",)),
        ("demo", ["demo", "-i", RECORDS, "-o", "out/demo"], ("out/demo",)),
    ]


# ---------------------------------------------------------------------------
# checks

def read_rows(path):
    """records.csv as {(n, ngram, year): count}, read with the csv module."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["n", "ngram", "year", "count"]:
            raise ValueError(f"{path}: unexpected header")
        return {(int(n), ngram, int(year)): int(count) for n, ngram, year, count in reader}


def ingest_problems(stderr, plan):
    problems = []
    report = {name: int(value) for name, value in _REPORT_RE.findall(stderr)}
    expected = {name: plan[name] for name in
                ("total_in", "incomplete_removed", "duplicates_removed", "total_out")}
    if report != expected:
        problems.append(f"merge report {report} != plan {expected}")
    diagnostics = len(_DIAGNOSTIC_RE.findall(stderr))
    if diagnostics != plan["diagnostics"]:
        problems.append(f"{diagnostics} diagnostics != plan {plan['diagnostics']}")
    return problems


def planted_problems(rows, plan):
    problems = []
    for ngram, years in plan["planted"].items():
        got = {year: count for (n, text, year), count in rows.items() if n == 2 and text == ngram}
        if got != {int(year): count for year, count in years.items()}:
            problems.append(f"planted {ngram!r}: records {got} != plan {years}")
    return problems


def count_problems(work, plan, script, counts):
    """Counts of a traced pass that follow from the inputs: the merge
    figures against the plan, the counted n-grams against the records
    file the pass wrote."""
    problems = []
    kinds = {kind for kind, _, _ in script}
    if "ingest" in kinds:
        expected = {"ingest.entries_in": plan["total_in"], "ingest.diagnostics": plan["diagnostics"],
                    "ingest.incomplete_removed": plan["incomplete_removed"],
                    "ingest.duplicates_removed": plan["duplicates_removed"],
                    "ingest.entries_out": plan["total_out"]}
        got = {name: counts[name] for name in expected}
        if got != expected:
            problems.append(f"traced ingest counts {got} != plan {expected}")
    if "extract" in kinds:
        rows = read_rows(work / "out/records.csv")
        got = (counts["ngrams.records"], counts["ngrams.windows_kept"])
        if got != (len(rows), sum(rows.values())):
            problems.append(f"traced (records, windows kept) {got} != records.csv "
                            f"{(len(rows), sum(rows.values()))}")
    return problems


def svg_count(directory):
    return len(list(Path(directory).glob("*.svg")))


def _check_build(work, plan, results):
    problems = [(0, p) for p in ingest_problems(results[0].stderr, plan)]
    problems += [(1, p) for p in planted_problems(read_rows(work / "out/records.csv"), plan)]
    return problems


def _setup_problems(work, plan, rows):
    """Set-up outputs are checked once and charged to the first command."""
    problems = ingest_problems((work / "setup/ingest.stderr").read_text(encoding="utf-8"), plan)
    return [(0, p) for p in problems + planted_problems(rows, plan)]


def _check_explore(work, plan, results):
    rows = read_rows(work / RECORDS)
    problems = _setup_problems(work, plan, rows)
    bigram_totals = {}
    for (n, _, year), count in rows.items():
        if n == 2:
            bigram_totals[year] = bigram_totals.get(year, 0) + count
    lo, hi = min(year for _, _, year in rows), max(year for _, _, year in rows)
    expected = [["label", "year", "frequency", "has_data"]]
    for ngram in (PLANTED_RISING, PLANTED_FALLING):
        for year in range(lo, hi + 1):
            total = bigram_totals.get(year, 0)
            value = rows.get((2, ngram, year), 0) / total if total else 0.0
            expected.append([ngram, str(year), format(value, ".10g"),
                             "true" if total else "false"])
    with open(work / "out/planted.csv", encoding="utf-8", newline="") as fh:
        if list(csv.reader(fh)) != expected:
            problems.append((2, "planted series differ from counts / bigram totals"))
    for index, result in enumerate(results):
        kind, argv = result.argv[0], result.argv
        if kind == "trends":
            want = PLANTED_RISING if "rising" in argv else PLANTED_FALLING
            lines = result.stdout.decode("utf-8").splitlines()
            if len(lines) < 2 or lines[1].split(",")[1] != want:
                problems.append((index, f"{want!r} is not ranked first"))
        if kind == "top":
            n = int(argv[argv.index("-n") + 1])
            totals = {}
            for (rn, ngram, _), count in rows.items():
                if rn == n:
                    totals[ngram] = totals.get(ngram, 0) + count
            ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:TOP_K]
            want = "".join(f"{rank}. {ngram} {total}\n"
                           for rank, (ngram, total) in enumerate(ranked, 1))
            if result.stdout.decode("utf-8") != want:
                problems.append((index, f"top -n {n} differs from summed records"))
    if svg_count(work / "out/demo") != 5:
        problems.append((len(results) - 1, "demo did not write 5 plots"))
    return problems


def _check_render(work, plan, results):
    import oracle
    from trendgram.ingest import read_corpus
    from trendgram.ngrams import Stoplist
    from trendgram.textprep import entry_sentences

    rows = read_rows(work / RECORDS)
    problems = _setup_problems(work, plan, rows)
    sentences = [s for e in read_corpus(work / "setup/corpus.csv") for s in entry_sentences(e)]
    if rows != oracle.naive_ngram_counts(sentences, Stoplist.default()):
        problems.append((0, "records differ from the naive oracle"))
    pages = min(RENDER_LIMIT, len({ngram for _, ngram, _ in rows}))
    index = (work / "out/catalog/index.html").read_text(encoding="utf-8")
    if svg_count(work / "out/catalog") != pages or index.count("<tr><td>") != pages:
        problems.append((0, f"catalog does not hold {pages} plots"))
    if svg_count(work / "out/demo") != 5:
        problems.append((1, "demo did not write 5 plots"))
    return problems


@dataclass
class Workload:
    """A script of (kind, argv, output paths) commands, the set-up commands
    that precede it, and `check(work, plan, results)`, which returns the
    problems of the first pass as [(command index, message)]; `results`
    have `argv`, `stdout` (bytes) and `stderr` (text)."""

    entries: int  # clean entries in the generated exports
    setup_commands: list
    script: list
    check: object

    def sizes(self, scale=1.0):
        """Entries per format: one large BibTeX share, as real exports are."""
        total = max(20, int(self.entries * scale))
        return {"bibtex": total * 7 // 10, "csv": total * 15 // 100, "endnote": total * 15 // 100}


WORKLOADS = {
    "build": Workload(400, [], _build_script(), _check_build),
    "explore": Workload(190, SETUP_RECORDS, _explore_script(), _check_explore),
    "render": Workload(50, SETUP_RECORDS, _render_script(), _check_render),
}
