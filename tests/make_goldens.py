"""Regenerate the frozen golden outputs under tests/golden/.

Run from the repository root:

    python tests/make_goldens.py

It writes the demo pipeline's outputs, the demo plots, a 12-page
catalog of the demo records (`tests/golden/demo/catalog/`), the `top`
and `trends` listings of the demo records (`TEXT_GOLDENS`), the series
of the paper's headline phrases (`HEADLINE_QUERY`, read through the
records index) and two renderer fixtures. The demo pipeline outputs are cross-checked against
the naive oracle before being written, so a regression in the real
implementation cannot silently become the new golden truth. Regenerate
only after verifying an intentional behavior change.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracle import naive_ngram_counts  # noqa: E402

from trendgram.cli import DEMO_QUERIES, run  # noqa: E402
from trendgram.ingest import read_corpus  # noqa: E402
from trendgram.ngrams import Stoplist, read_records  # noqa: E402
from trendgram.plotting import render_plot  # noqa: E402
from trendgram.textprep import entry_sentences  # noqa: E402

# Golden file -> the command whose standard output it holds, run on the
# demo records (`-i` is added). They pin the paper's headline trends.
TEXT_GOLDENS = {
    "top-2.txt": ["top", "-n", "2", "-k", "10"],
    "trends-rising.csv": ["trends", "-n", "2", "--direction", "rising", "-k", "5",
                          "--min-support", "3", "--min-years", "3"],
    "trends-falling.csv": ["trends", "-n", "2", "--direction", "falling", "-k", "5",
                           "--min-support", "3", "--min-years", "3"],
}

# The phrases of the paper's headline trends; `series-headline.csv` holds
# their series on the demo records, queried once the records index exists,
# so that it is read from the index's keyed sections.
HEADLINE_QUERY = "feature location, open source, program slicing, legacy systems"


def run_output(argv):
    """The standard output of `run(argv)`, which must succeed."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0, argv
    return out.getvalue()


def main():
    demo = ROOT / "demo"
    out = ROOT / "tests" / "golden" / "demo"
    out.mkdir(parents=True, exist_ok=True)

    corpus = out / "corpus.csv"
    records = out / "records.csv"
    series = out / "series-case-study.csv"

    assert run(["ingest",
                "--bibtex", str(demo / "demo.bib"),
                "--csv", str(demo / "demo.csv"),
                "--endnote", str(demo / "demo.enw"),
                "-o", str(corpus)]) == 0
    assert run(["extract", "-i", str(corpus), "-o", str(records)]) == 0

    # oracle cross-check before freezing
    entries = read_corpus(corpus)
    sentences = [s for e in entries for s in entry_sentences(e)]
    expected = naive_ngram_counts(sentences, Stoplist.default())
    got = read_records(records)
    assert got == expected, "records.csv disagrees with the naive oracle"

    assert run(["query", "-i", str(records), DEMO_QUERIES[0], "-o", str(series)]) == 0
    assert run(["demo", "-i", str(records), "-o", str(out)]) == 0
    assert run(["catalog", "-i", str(records), "-o", str(out / "catalog"),
                "--limit", "12"]) == 0
    for name, argv in TEXT_GOLDENS.items():
        (out / name).write_bytes(run_output([*argv, "-i", str(records)]).encode("utf-8"))
    assert Path(f"{records}.idx").is_file()
    assert run(["query", "-i", str(records), HEADLINE_QUERY,
                "-o", str(out / "series-headline.csv")]) == 0
    # The reads above left the records index beside records.csv; it is a
    # cache, not a golden.
    Path(f"{records}.idx").unlink(missing_ok=True)

    # unit goldens for the renderer
    from test_plotting import gapped_fixture, two_series_fixture  # noqa: E402
    (ROOT / "tests" / "golden" / "two_series.svg").write_text(
        render_plot(two_series_fixture(), "two series fixture"), encoding="utf-8")
    (ROOT / "tests" / "golden" / "gapped_years.svg").write_text(
        render_plot(gapped_fixture(), "gapped years"), encoding="utf-8")

    print(f"golden outputs written to {out}")


if __name__ == "__main__":
    main()
