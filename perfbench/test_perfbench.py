"""Tests of the benchmark's own logic.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, oracle, service_load, stats, traced  # noqa: E402
from repro.app.loader import loads_apk  # noqa: E402
from repro.core.checker import NChecker  # noqa: E402
from repro.pipeline.cachestore import app_content_fingerprint  # noqa: E402

# -- percentile selection --------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50), (39, 50), (40, 75), (100, 90),
     (199, 90), (200, 95), (1000, 99), (10_000, 99.9)],
)
def test_supported_percentile_leaves_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_supported_percentile_has_ten_samples_above_its_value():
    samples = list(range(1, 41))
    q = stats.supported_percentile(len(samples))
    value = stats.percentile(samples, q)
    assert sum(1 for s in samples if s > value) == stats.SAMPLES_BEYOND


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 75) == 4.0
    assert stats.percentile(samples, 100) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- open-loop accounting -------------------------------------------------------


def test_latency_is_timed_from_due_and_failures_miss_every_limit():
    jobs = [
        stats.Job(due=0.0, sent=0.0, done=0.1),
        # The generator stalled: sent 0.5 s late, so the job waited 0.5 s
        # before the system saw it, and that wait is charged.
        stats.Job(due=1.0, sent=1.5, done=1.6),
        stats.Job(due=2.0, sent=2.0, done=None),
    ]
    latencies = stats.latencies_from_due(jobs)
    assert latencies[:2] == pytest.approx([0.1, 0.6])
    assert math.isinf(latencies[2])
    assert stats.lateness(jobs) == pytest.approx([0.0, 0.5, 0.0])


def test_lateness_is_never_negative():
    assert stats.lateness([stats.Job(due=1.0, sent=0.9, done=1.2)]) == [0.0]


def test_schedule_is_seeded_and_mixes_fresh_and_repeat_apps():
    phases = [("light", 14.0, 300), ("heavy", 35.0, 300)]
    first = service_load.schedule(random.Random(7), phases, gap=2.0)
    assert first == service_load.schedule(random.Random(7), phases, gap=2.0)
    assert first != service_load.schedule(random.Random(8), phases, gap=2.0)
    dues = [a.due for a in first]
    assert dues == sorted(dues)
    light = [a for a in first if a.phase == "light"]
    assert len(light) / light[-1].due == pytest.approx(14.0, rel=0.2)
    repeats = sum(a.resubmit for a in first) / len(first)
    assert repeats == pytest.approx(service_load.RESUBMIT_SHARE, abs=0.06)
    fresh = [a.app for a in first if not a.resubmit]
    assert fresh == list(range(len(fresh)))
    assert all(a.app < len(fresh) for a in first)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) > 0


# -- the ledger oracle ----------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    apps = inputs.service_corpus(seed=3, n_apps=6)
    checker = NChecker()
    entries = [checker.scan(loads_apk(app.text)).to_dict() for app in apps]
    return apps, entries


def test_oracle_scores_a_known_good_document(corpus):
    apps, entries = corpus
    table = oracle.score_document([a.truth for a in apps], json.dumps(entries))
    precision, recall = oracle.precision_recall(table)
    assert 0.9 <= precision <= 1.0
    assert 0.9 <= recall <= 1.0
    assert sum(c.correct for c in table.values()) > 0


def test_oracle_counts_a_dropped_finding_as_a_miss(corpus):
    apps, entries = corpus
    truths = [a.truth for a in apps]
    good = oracle.precision_recall(oracle.score_document(truths, json.dumps(entries)))
    wrong = json.loads(json.dumps(entries))
    victim = next(e for e in wrong if e["findings"])
    victim["findings"].pop()
    worse = oracle.precision_recall(oracle.score_document(truths, json.dumps(wrong)))
    assert worse[1] < good[1]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc.pop(),  # an app is missing
        lambda doc: doc.append(doc[0]),  # an app is reported twice
        lambda doc: doc[0]["requests"].pop(),  # a request site is missed
        lambda doc: doc[0]["findings"].append(
            dict(doc[0]["findings"][0], kind="no-such-defect")
        ),
        lambda doc: doc[0]["findings"].append(
            dict(doc[0]["findings"][0], location="nowhere")
        ),
        lambda doc: doc[0].update(package="com.elsewhere"),
    ],
)
def test_oracle_rejects_a_wrong_document(corpus, corrupt):
    apps, entries = corpus
    wrong = json.loads(json.dumps(entries))
    assert wrong[0]["findings"]
    corrupt(wrong)
    with pytest.raises(oracle.LedgerMismatch):
        oracle.score_document([a.truth for a in apps], json.dumps(wrong))


def test_oracle_rejects_a_non_document():
    with pytest.raises(oracle.LedgerMismatch):
        oracle.parse_document("not json")
    with pytest.raises(oracle.LedgerMismatch):
        oracle.parse_document('{"package": "x"}')


def test_nop_edit_changes_content_but_not_the_score():
    app = inputs.dev_app(seed=5)
    edited = inputs.nop_edit(app.text, random.Random(1))
    assert edited != app.text
    before, after = loads_apk(app.text), loads_apk(edited)
    assert app_content_fingerprint(before) != app_content_fingerprint(after)
    checker = NChecker()
    scores = [
        oracle.score_app(app.truth, checker.scan(apk).to_dict())
        for apk in (before, after)
    ]
    assert scores[0] == scores[1]


def test_inputs_are_seeded():
    assert inputs.dev_app(4).text == inputs.dev_app(4).text
    assert inputs.dev_app(4).text != inputs.dev_app(5).text
    deep = inputs.deep_chain_app(4)
    assert len(deep.truth.requests) == inputs.CHAIN_REQUESTS
    assert deep.methods >= inputs.CHAIN_REQUESTS * inputs.CHAIN_DEPTH


# -- spans ------------------------------------------------------------------------


def test_self_time_subtracts_the_part_children_cover():
    rec = traced.Recorder()
    rec.spans = [
        traced.Span("outer", 0.0, 10.0, None, "op"),
        traced.Span("a", 1.0, 4.0, 0, "op"),
        traced.Span("b", 3.0, 6.0, 0, "op"),  # overlaps a: covered once
        traced.Span("c", 9.0, 12.0, 0, "op"),  # clipped at the parent's end
    ]
    times = rec.self_times()
    assert times["outer"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert times["a"] == pytest.approx(3.0)


def test_recorder_nests_spans():
    rec = traced.Recorder()
    with rec.span("outer", "op"):
        with rec.span("inner", "op"):
            pass
    assert [s.parent for s in rec.spans] == [None, 0]
    assert rec.self_times()["outer"] >= 0.0


# -- names -------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["p50_ms", "cli.interp_ms", "pass.config-apis.methods_visited", "9x"])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_benchmark_file_names_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench import workloads

    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_name(name) for name in names)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
