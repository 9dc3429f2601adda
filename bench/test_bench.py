"""Tests of the benchmark itself: tiny smoke runs, span self time, oracles."""

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import workloads as wl
from hostspeed import REF_S, WINDOW, HostSpeed
from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
TINY = wl.Knobs(n_events=40, n_clusters=4, setup_repeats=2, oracle_queries=4,
                brute_events=30, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                n_codes=4, rounds_per_second=4.0, beam_width=3, max_steps=3)


def _contract():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_reports_every_metric_finite(workload, tmp_path):
    res = wl.run(workload, seed=3, seconds=0.2, trace=True, workdir=tmp_path,
                 knobs=TINY, trace_path=tmp_path / "spans.jsonl")
    contract = _contract()
    assert res.failed == 0 and res.attempted > 0
    assert set(res.end_to_end) == {m["name"] for m in contract["end_to_end"]}
    assert set(res.per_layer) == {m["name"] for m in contract["per_layer"]}
    for value, _unit in res.end_to_end.values():
        assert math.isfinite(value) and value > 0
    for value in res.per_layer.values():
        assert math.isfinite(value)
    for value, _unit in res.named.values():
        assert math.isfinite(value)
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_train_result_is_deterministic_per_seed(tmp_path):
    knobs = replace(TINY, setup_repeats=1)
    a = wl.run("train", 5, 0.5, False, tmp_path / "a", knobs=knobs)
    b = wl.run("train", 5, 0.5, False, tmp_path / "b", knobs=knobs)
    assert a.record["digest"] == b.record["digest"]
    assert a.named["dev_token_nll"] == b.named["dev_token_nll"]


def _span(name, start, end, parent):
    return SimpleNamespace(name=name, start=start, end=end, parent=parent, attrs={})


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 5.0, 0),     # overlaps a: covered part of root is 1..5
        _span("c", 8.0, 12.0, 0),    # runs past root: clipped to 8..10
        _span("a.x", 1.5, 2.0, 1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 2.5, 2.0, 4.0, 0.5])


def test_tracer_records_nesting_and_operation_ids():
    tr = Tracer()
    with tr.span("op"):
        with tr.span("layer", tokens=3):
            with tr.span("inner"):
                pass
    with tr.span("op"):
        pass
    parents = [s.parent for s in tr.spans]
    ops = [s.op for s in tr.spans]
    assert parents == [-1, 0, 1, -1]
    assert ops == [0, 0, 0, 3]
    assert tr.spans[1].attrs == {"tokens": 3}
    assert all(s.end >= s.start for s in tr.spans)
    selfs = self_times(tr.spans)
    assert all(t >= 0.0 for t in selfs)


@pytest.fixture(scope="module")
def small_index(tmp_path_factory):
    d = tmp_path_factory.mktemp("toy")
    wl.toydata.make_toy_dataset(7, 30, 4, d)
    index = wl.rt.InvertedIndex.build(d / "corpus.txt")
    _, groups = wl.td.load_dataset(d / "dataset.jsonl")
    return index, groups[0].members[0].event_raw


def test_ranking_oracles_accept_search_topk(small_index):
    index, event = small_index
    got = wl.ranking(index.search_topk(event, 10))
    assert wl.rankings_agree(got, wl.brute_force_ranking(index, event, 10))
    assert wl.ranking_consistent(index, event, got, 10)


def test_ranking_oracles_flag_a_swapped_pair(small_index):
    index, event = small_index
    got = wl.ranking(index.search_topk(event, 10))
    swapped = [got[1], got[0]] + got[2:]
    assert got[0] != got[1]
    assert not wl.rankings_agree(swapped, wl.brute_force_ranking(index, event, 10))
    assert not wl.ranking_consistent(index, event, swapped, 10)


def test_ranking_oracles_flag_a_wrong_score_or_missing_doc(small_index):
    index, event = small_index
    got = wl.ranking(index.search_topk(event, 10))
    bumped = [(got[-1][0], got[-1][1] + 1e-6)]
    assert not wl.ranking_consistent(index, event, got[:-1] + bumped, 10)
    assert not wl.ranking_consistent(index, event, got[:-1], 10)


def test_logprob_oracle_flags_a_perturbed_hypothesis(tmp_path):
    s = wl.set_up("decode", tmp_path / "s", 2, TINY, wl.NullTracer())
    ex = s.dev_groups[0].members[0]
    ev_ids = [s.vocab.empty_id]
    event_ids = s.vocab.encode(list(ex.event_tokens))
    res = wl.gen.beam_search(s.model.dec, s.model.dec_cfg, s.vocab, ev_ids, event_ids,
                             ex.dimension, width=3, max_steps=3)
    for hyp in res.hypotheses:
        again = wl.recomputed_logprob(s.model, s.vocab, ev_ids, event_ids,
                                      ex.dimension, hyp.tokens)
        assert wl.logprob_agrees(hyp.logprob, again)
        assert not wl.logprob_agrees(hyp.logprob + 1e-6, again)
    finished = list(res.hypotheses[0].tokens[:2]) + [s.vocab.eos_id]
    assert wl.recomputed_logprob(s.model, s.vocab, ev_ids, event_ids, ex.dimension,
                                 finished) == wl.gen.sequence_logprob(
        s.model.dec, s.model.dec_cfg, s.vocab, ev_ids, event_ids, ex.dimension, finished)


def test_host_speed_scales_by_median_of_recent_timings():
    host = HostSpeed()
    host.timings = [1.0] * 10 + [REF_S * 2] * (WINDOW - 1) + [9.0]
    assert host.scale() == pytest.approx(0.5)
    host.probe()
    host.tick()     # due only PROBE_EVERY_S after the last timing
    assert len(host.timings) == 10 + WINDOW + 1


def test_loss_oracle_flags_non_finite_values():
    assert wl.losses_ok([1.0, 2.5])
    assert not wl.losses_ok([1.0, float("nan")])
    assert not wl.losses_ok([float("inf")])


def test_query_stream_repeat_share_and_determinism():
    events = [f"e{i}" for i in range(5000)]
    a = list(itertools.islice(wl.query_stream(events, wl.REPEAT_SHARE, np.random.default_rng(1)), 4000))
    b = list(itertools.islice(wl.query_stream(events, wl.REPEAT_SHARE, np.random.default_rng(1)), 4000))
    assert a == b
    repeats = 4000 - len(set(a))
    assert 0.37 < repeats / 4000 < 0.43
