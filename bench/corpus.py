"""Seeded synthetic bibliographic exports with a known ground truth.

`generate(seed, sizes, out_dir)` writes one BibTeX file, one IEEE-style
CSV file and one EndNote refer file, and returns the plan: what the
program must report and count when it reads them.

Content words follow a Zipf law over a vocabulary of made-up words plus
a few real domain words (so the built-in demo queries find data), which
gives far fewer distinct n-grams per entry than a uniform vocabulary.
Every made-up word contains a `k` or a `z` and has at least six letters,
so none is an English function word.

Where each shape parameter comes from:
- Zipf exponent 1.0: word frequencies in natural language fall off
  about as 1/rank (G. K. Zipf, Human Behavior and the Principle of
  Least Effort, 1949; S. T. Piantadosi, Zipf's word frequency law in
  natural language: a critical review and future directions,
  Psychonomic Bulletin & Review 21, 2014).
- Abstracts of 150 to 250 words: the length IEEE's and APA's author
  guidelines ask for.
- Title length, keywords per entry, words per keyword, authors per
  entry, the share of articles and of other function words: measured on the repository's
  hand-written sample corpus, `tests/golden/demo/corpus.csv`.
- Years 2000-2014: the program's default year window.
- Unverified: the vocabulary size, sentence lengths, the shares of the
  three formats and the rates of duplicates, incomplete entries and bad
  years. The rates are there to exercise the merge and diagnostic paths,
  not to match any real export.

Planted on purpose:
- cross-format duplicates (same title modulo case and punctuation, same
  year) whose extra copies the merge must drop;
- incomplete entries (no abstract, or no authors);
- bad-year records (out of range, non-numeric, missing);
- one rising and one falling bigram whose four tokens lack `k` and `z`
  and so never occur in generated text. They are planted only in
  entries that are neither duplicated nor incomplete, as sentences of
  their own, so their per-year counts in `records.csv` are exact.

The same seed and sizes give byte-identical files.
"""

from __future__ import annotations

import csv
import itertools
import random
from pathlib import Path

# The program's default year window (`trendgram.ingest.DEFAULT_YEAR_RANGE`).
YEARS = tuple(range(2000, 2015))

RISING = ("holtrin", "mespary")
FALLING = ("gruval", "thimber")

# Function words used as filler; every one is on the classic English
# stoplist, so windows containing them exercise the stopword rule.
ARTICLES = ("the", "a", "an")
FILLER = ("of", "and", "in", "to", "for", "with", "on", "by", "from", "is",
          "are", "we", "this", "that", "our", "as", "at", "be")

# Real words placed at fixed Zipf ranks so the demo queries have data.
DOMAIN = ("program", "analysis", "code", "software", "study", "static",
          "dynamic", "case", "tool", "experiment", "source", "open",
          "legacy", "feature", "location", "visualization", "review",
          "survey", "slicing", "clone", "detection", "maintenance")

VOCAB_SIZE = 6000  # unverified
ZIPF_S = 1.0
ABSTRACT_WORDS = (150, 250)
SENTENCE_WORDS = (12, 28)  # unverified
# Measured on tests/golden/demo/corpus.csv (25 entries): 47 of the 521
# abstract words are articles; a fifth of the words left after the
# program drops articles are other stopwords; titles have 4-7 words;
# entries have 2-3 keywords of 1-2 words and 1-2 authors; 54 of the 60
# keywords occur verbatim in the title or abstract, and 82 of the 144
# title words occur in the abstract.
ARTICLE_SHARE = 0.09
FILLER_SHARE = 0.20
TITLE_WORDS = (4, 7)
KEYWORDS = (2, 3)
KEYWORD_WORDS = (1, 2)
AUTHORS = (1, 2)
KEYWORD_REUSE = 0.9
TITLE_REUSE = 0.57

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

BIB_NAME = "export.bib"
CSV_NAME = "export.csv"
ENW_NAME = "export.enw"

CSV_HEADER = ("Document Title", "Authors", "Publication Year", "Abstract",
              "Author Keywords", "Publisher")


def _made_up_words(rng, count):
    words, seen = [], set()
    while len(words) < count:
        syllables = rng.randint(3, 4)
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(syllables))
        if ("k" in word or "z" in word) and word not in seen:
            seen.add(word)
            words.append(word)
    return words


def vocabulary(rng):
    """Content words in Zipf rank order, the domain words spread among
    the first few hundred ranks."""
    words = _made_up_words(rng, VOCAB_SIZE - len(DOMAIN))
    for index, word in enumerate(DOMAIN):
        words.insert(3 + 11 * index, word)
    return words


class _Writer:
    """Draws text from one seeded stream."""

    def __init__(self, rng):
        self.rng = rng
        self.words = vocabulary(rng)
        weights = [1.0 / rank ** ZIPF_S for rank in range(1, len(self.words) + 1)]
        self.cum = list(itertools.accumulate(weights))
        self.is_content = frozenset(self.words)

    def content(self, k):
        return self.rng.choices(self.words, cum_weights=self.cum, k=k)

    def sentence(self, length):
        rng = self.rng
        tokens = self.content(length)
        for index in range(length):
            draw = rng.random()
            if draw < ARTICLE_SHARE:
                tokens[index] = rng.choice(ARTICLES)
            elif draw < ARTICLE_SHARE + (1 - ARTICLE_SHARE) * FILLER_SHARE:
                tokens[index] = rng.choice(FILLER)
        return tokens

    def abstract(self):
        """Token lists of SENTENCE_WORDS words up to a total drawn from
        ABSTRACT_WORDS; the last sentence takes the remainder."""
        rng = self.rng
        left = rng.randint(*ABSTRACT_WORDS)
        sentences = []
        while left:
            length = rng.randint(*SENTENCE_WORDS)
            if left - length < SENTENCE_WORDS[0]:
                length = left
            sentences.append(self.sentence(length))
            left -= length
        return sentences

    def title(self, sentences):
        """TITLE_REUSE of the words come from the abstract."""
        rng = self.rng
        used = [token for tokens in sentences for token in tokens if token in self.is_content]
        words = [rng.choice(used) if rng.random() < TITLE_REUSE else self.content(1)[0]
                 for _ in range(rng.randint(*TITLE_WORDS))]
        return " ".join(word.capitalize() for word in words)

    def keywords(self, sentences):
        """KEYWORD_REUSE of the keywords are runs of content words of the
        abstract."""
        rng = self.rng
        keywords = []
        for _ in range(rng.randint(*KEYWORDS)):
            length = rng.randint(*KEYWORD_WORDS)
            runs = [tokens[at:at + length] for tokens in sentences
                    for at in range(len(tokens) - length + 1)
                    if all(token in self.is_content for token in tokens[at:at + length])]
            words = (rng.choice(runs) if runs and rng.random() < KEYWORD_REUSE
                     else self.content(length))
            keywords.append(" ".join(words))
        return keywords

    def authors(self):
        rng = self.rng
        return [f"{rng.choice('ABCDEFGHJKLMNPRST')}. {self.content(1)[0].capitalize()}"
                for _ in range(rng.randint(*AUTHORS))]


def _normalized(title):
    return " ".join(title.casefold().split())


def _text(sentences):
    return " ".join(f"{tokens[0].capitalize()} {' '.join(tokens[1:])}".rstrip() + "."
                    for tokens in sentences)


def _planted_sentences(tokens, times):
    return "".join(f" {tokens[0].capitalize()} {tokens[1]}." for _ in range(times))


def generate(seed, sizes, out_dir):
    """Write the three exports under `out_dir` and return the plan.

    `sizes` maps "bibtex", "csv" and "endnote" to the number of clean
    entries per format; duplicates, incomplete and bad-year records are
    added on top in fixed proportions.
    """
    rng = random.Random(seed)
    writer = _Writer(rng)
    titles = set()
    planted = {" ".join(RISING): {}, " ".join(FALLING): {}}

    def fresh_entry(year):
        sentences = writer.abstract()
        while True:
            title = writer.title(sentences)
            if _normalized(title) not in titles:
                titles.add(_normalized(title))
                break
        return {"title": title, "abstract": _text(sentences), "keywords": writer.keywords(sentences),
                "authors": writer.authors(), "year": year}

    formats = {"bibtex": [], "csv": [], "endnote": []}
    for fmt, count in sizes.items():
        for _ in range(count):
            formats[fmt].append(fresh_entry(rng.choice(YEARS)))

    # Cross-format duplicates: a copy of a clean entry in another format,
    # title re-cased with trailing punctuation. Half the copies lack
    # keywords (so the original is more complete); the rest tie, and the
    # first one read survives.
    clean_total = sum(sizes.values())
    duplicates = max(1, clean_total // 20)
    duplicated = set()
    order = ("bibtex", "csv", "endnote")
    for index in range(duplicates):
        source = order[index % 3]
        target = order[(index + 1) % 3]
        original = formats[source][rng.randrange(len(formats[source]))]
        while id(original) in duplicated:
            original = formats[source][rng.randrange(len(formats[source]))]
        duplicated.add(id(original))
        copy = dict(original, title=original["title"].upper() + "?")
        if index % 2:
            copy["keywords"] = []
        formats[target].append(copy)
        duplicated.add(id(copy))

    # Planted bigrams, only in entries that survive the merge unchanged.
    for entry in (e for fmt in order for e in formats[fmt] if id(e) not in duplicated):
        step = YEARS.index(entry["year"])
        rising, falling = step // 3, (len(YEARS) - 1 - step) // 3
        entry["abstract"] += (_planted_sentences(RISING, rising)
                              + _planted_sentences(FALLING, falling))
        for tokens, times in ((RISING, rising), (FALLING, falling)):
            if times:
                counts = planted[" ".join(tokens)]
                counts[entry["year"]] = counts.get(entry["year"], 0) + times

    incomplete = max(1, clean_total // 40)
    for index in range(incomplete):
        entry = fresh_entry(rng.choice(YEARS))
        if index % 2:
            entry["authors"] = []
        else:
            entry["abstract"] = ""
        formats[order[index % 3]].append(entry)

    bad_years = ("1887", "n.d.", "")
    diagnostics = max(1, clean_total // 50)
    for index in range(diagnostics):
        entry = fresh_entry(YEARS[0])
        entry["year"] = bad_years[index % 3]
        formats[order[index % 3]].append(entry)

    for fmt in order:
        rng.shuffle(formats[fmt])

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "bibtex": _write_bibtex(formats["bibtex"], out_dir / BIB_NAME),
        "csv": _write_csv(formats["csv"], out_dir / CSV_NAME),
        "endnote": _write_endnote(formats["endnote"], out_dir / ENW_NAME),
    }
    total_in = sum(len(entries) for entries in formats.values()) - diagnostics
    return {
        "seed": seed,
        "entries": {fmt: len(formats[fmt]) for fmt in order},
        "export_bytes": {fmt: path.stat().st_size for fmt, path in paths.items()},
        "total_in": total_in,
        "incomplete_removed": incomplete,
        "duplicates_removed": duplicates,
        "total_out": total_in - incomplete - duplicates,
        "diagnostics": diagnostics,
        "planted": {ngram: dict(sorted(years.items())) for ngram, years in planted.items()},
    }


def _write_bibtex(entries, path):
    chunks = ["@comment{Synthetic export generated for benchmarking.}\n"]
    for number, entry in enumerate(entries, 1):
        fields = [("title", entry["title"])]
        if entry["abstract"]:
            fields.append(("abstract", entry["abstract"]))
        fields.append(("keywords", "; ".join(entry["keywords"])))
        if entry["authors"]:
            fields.append(("author", " and ".join(entry["authors"])))
        if entry["year"] != "":
            fields.append(("year", str(entry["year"])))
        fields.append(("journal", "Journal of Synthetic Studies"))
        body = ",\n".join(f"  {name} = {{{value}}}" for name, value in fields)
        chunks.append(f"\n@article{{syn{number},\n{body}\n}}\n")
    path.write_text("".join(chunks), encoding="utf-8")
    return path


def _write_csv(entries, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(CSV_HEADER)
        for entry in entries:
            out.writerow([entry["title"], ";".join(entry["authors"]), entry["year"],
                          entry["abstract"], ";".join(entry["keywords"]), "Synthetic Press"])
    return path


def _write_endnote(entries, path):
    chunks = []
    for entry in entries:
        lines = ["%0 Journal Article", f"%T {entry['title']}"]
        lines += [f"%A {author}" for author in entry["authors"]]
        if entry["year"] != "":
            lines.append(f"%D {entry['year']}")
        if entry["keywords"]:
            lines.append(f"%K {'; '.join(entry['keywords'])}")
        if entry["abstract"]:
            lines.append(f"%X {entry['abstract']}")
        chunks.append("\n".join(lines) + "\n")
    path.write_text("\n".join(chunks), encoding="utf-8")
    return path


def shape(corpus_csv):
    """Means over the entries of a corpus.csv, as the program splits and
    counts them: the figures to set beside the sample corpus's."""
    from trendgram.ingest import read_corpus
    from trendgram.ngrams import NGRAM_MAX, Stoplist, count_ngrams
    from trendgram.textprep import entry_sentences

    stoplist = Stoplist.default()
    sums = dict.fromkeys(("title words", "keywords", "abstract words", "stopword share",
                          "n-gram windows", "distinct n-grams", "distinct n-grams per window"), 0.0)
    entries = read_corpus(corpus_csv)
    for entry in entries:
        sentences = entry_sentences(entry)
        abstract = [token for s in sentences if s.origin == "abstract" for token in s.tokens]
        windows = sum(max(len(s.tokens) - n + 1, 0) for s in sentences
                      for n in range(1, NGRAM_MAX + 1))
        distinct = len({(r.n, r.ngram) for r in count_ngrams(sentences, stoplist)})
        sums["title words"] += sum(len(s.tokens) for s in sentences if s.origin == "title")
        sums["keywords"] += len(entry.keywords)
        sums["abstract words"] += len(abstract)
        sums["stopword share"] += sum(token in stoplist for token in abstract) / max(len(abstract), 1)
        sums["n-gram windows"] += windows
        sums["distinct n-grams"] += distinct
        sums["distinct n-grams per window"] += distinct / max(windows, 1)
    return {name: total / len(entries) for name, total in sums.items()}


def compare_with_sample(tmp_dir, seed=1, sizes=None):
    """(sample shape, generated shape): the repository's sample corpus
    beside a generated one, ingested by the program under `tmp_dir`."""
    from contextlib import redirect_stderr
    from io import StringIO

    from trendgram.cli import run

    tmp_dir = Path(tmp_dir)
    generate(seed, sizes or {"bibtex": 350, "csv": 75, "endnote": 75}, tmp_dir)
    with redirect_stderr(StringIO()):
        run(["ingest", "--bibtex", str(tmp_dir / BIB_NAME), "--csv", str(tmp_dir / CSV_NAME),
             "--endnote", str(tmp_dir / ENW_NAME), "-o", str(tmp_dir / "corpus.csv")])
    root = Path(__file__).resolve().parent.parent
    return shape(root / "tests/golden/demo/corpus.csv"), shape(tmp_dir / "corpus.csv")


if __name__ == "__main__":
    # PYTHONPATH=src python3 bench/corpus.py: a generated corpus's shape
    # beside that of the repository's sample corpus.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sample, generated = compare_with_sample(tmp)
    print(f"{'per entry (mean)':30s} {'sample':>9s} {'generated':>10s}")
    for name in sample:
        print(f"{name:30s} {sample[name]:9.3f} {generated[name]:10.3f}")
