"""Self-tests of the benchmark at a tiny size.

    PYTHONPATH=src python -m pytest bench/selftest.py

They are not named `test_*.py`, so the repository's own test run does
not collect them.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict

import pytest

import run

assert run.import_program(), "run with the repository's src on the path"

import corpus  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trendgram.ngrams import Stoplist  # noqa: E402

TINY = 0.05  # share of each workload's entry count


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def declared_units(section):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def test_generator_is_deterministic(tmp_path):
    sizes = workloads.WORKLOADS["build"].sizes(TINY)
    plans = [corpus.generate(seed, sizes, tmp_path / name)
             for seed, name in ((7, "a"), (7, "b"), (8, "c"))]
    assert plans[0] == plans[1]
    for name in (corpus.BIB_NAME, corpus.CSV_NAME, corpus.ENW_NAME):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def test_vocabulary_avoids_stopwords_and_planted_tokens():
    words = set(corpus.vocabulary(random.Random(1)))
    stoplist = Stoplist.default()
    assert not [word for word in words if word in stoplist]
    assert not words & set(corpus.RISING + corpus.FALLING)
    assert not [word for word in corpus.FILLER if word not in stoplist]


def test_generated_entries_are_shaped_like_the_sample_corpus(tmp_path):
    sample, generated = corpus.compare_with_sample(tmp_path)
    for name in ("title words", "keywords", "stopword share", "distinct n-grams per window"):
        assert generated[name] == pytest.approx(sample[name], rel=0.15), name
    low, high = corpus.ABSTRACT_WORDS
    assert low * (1 - corpus.ARTICLE_SHARE) <= generated["abstract words"] <= high


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_truth_survives_the_pipeline(name):
    result, lines, _ = run.benchmark(name, seed=3, seconds=0, trace=False, scale=TINY,
                                     min_passes=2)
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] == 3 * len(workloads.WORKLOADS[name].script)  # warm-up + 2
    assert units(result) == declared_units("end_to_end")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_span_self_times_add_up_to_each_command(name):
    result, lines, tracer = run.benchmark(name, seed=3, seconds=0, trace=True, scale=TINY,
                                          min_passes=1)
    assert result["correct"], "\n".join(lines)
    assert units(result) == declared_units("per_layer")
    roots = {}
    for span_name, start, end, parent, run_id in tracer.spans:
        if parent == -1:
            assert span_name == "cli.run"
            roots[run_id] = end - start
        else:
            parent_start, parent_end = tracer.spans[parent][1:3]
            assert parent_start <= start <= end <= parent_end
    assert len(roots) == len(workloads.WORKLOADS[name].script)
    sums = defaultdict(float)
    for _, seconds, run_id in tracing.self_times(tracer.spans):
        assert seconds >= -1e-9
        sums[run_id] += seconds
    for run_id, wall in roots.items():
        assert sums[run_id] == pytest.approx(wall, rel=1e-9, abs=1e-9)
