"""Self-tests of the benchmark's own arithmetic and file format.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from perfbench import spec
from perfbench.loadgen import run_open_loop
from perfbench.stats import (
    chunk_rates,
    covered,
    highest_supported_percentile,
    nearest_rank,
    samples_beyond,
    self_time,
    tail_summary,
)
from perfbench.tracing import Span, SpanRecorder, self_times, summarize

ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------- #
# percentile selection
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_has_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_nearest_rank_and_tail_summary():
    values = list(range(1, 1001))
    assert nearest_rank(values, 50.0) == 500
    assert nearest_rank(values, 99.0) == 990
    assert nearest_rank([7.0], 99.0) == 7.0
    summary = tail_summary(reversed(values))
    assert summary == {"n": 1000, "p50": 500, "p99": 990, "p99_beyond": 10, "top_q": 99.0, "top": 990}
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)


def test_chunk_rates_drop_partial_chunk():
    durations = [1.0, 1.0, 2.0, 1.0, 5.0]
    # chunks of 2 steps take 2 s and 3 s; the last partial chunk is dropped
    assert chunk_rates(durations, 10, 2) == [pytest.approx(10.0), pytest.approx(20.0 / 3.0)]


# --------------------------------------------------------------------------- #
# span self time
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_union_of_children():
    # overlapping children count once; the part outside the parent is clipped
    children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0), (20.0, 21.0)]
    assert covered(0.0, 10.0, children) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(6.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)


def test_recorder_links_parents_per_thread_and_step_children():
    recorder = SpanRecorder("test")

    def inner():
        return 1

    def outer():
        return recorder.call("inner", inner, (), {})

    recorder.call("outer", outer, (), {})
    thread = threading.Thread(target=lambda: recorder.call("other", inner, (), {}))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["other"].parent is None  # another thread's stack is separate

    spans = [
        Span(1, None, "engine.step", 0.0, 10.0, "window", 1, None),
        Span(2, None, "nn.backward", 2.0, 5.0, "window", 1, None),
        Span(3, 2, "leaf", 3.0, 4.0, "window", 1, None),
        Span(4, None, "nn.optim", 6.0, 7.0, "window", 1, None),
        Span(5, None, "nn.optim", 6.0, 7.0, "window", 2, None),  # other thread
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)  # 10 - backward 3 - optim 1
    assert own[2] == pytest.approx(2.0)
    table = summarize(spans)
    assert table["nn.optim"]["calls"] == 2
    assert table["engine.step"]["self_s"] == pytest.approx(6.0)


# --------------------------------------------------------------------------- #
# names and BENCHMARK.json
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["setup_s", "nn.inference.call_ms", "lat_p99_ms", "a", "9x", "a-b.c_d"])
def test_good_names(name):
    assert spec.NAME_PATTERN.fullmatch(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "lat%"])
def test_bad_names(name):
    assert not spec.NAME_PATTERN.fullmatch(name)


def test_spec_names_are_valid_and_unique():
    names = list(spec.WORKLOADS) + [m.name for m in spec.END_TO_END] + [m.name for m in spec.LAYERS]
    assert len(names) == len(set(names))
    assert all(spec.NAME_PATTERN.fullmatch(name) for name in names)
    assert all(spec.UNIT_PATTERN.fullmatch(m.unit) for m in spec.END_TO_END + spec.LAYERS)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_valid():
    doc = _benchmark_json()
    assert spec.check_benchmark_json(doc) == []
    assert len(json.dumps(doc)) <= 64 * 1024
    for path in doc["paths"]:
        assert (ROOT / path).is_dir()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["end_to_end"][1].update(bound=0.3),
        lambda d: d["end_to_end"][0].update(bound=0.01),
        lambda d: d["end_to_end"][1].update(better="faster"),
        lambda d: d["per_layer"][0].update(name="bad name"),
        lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
        lambda d: d["workloads"][0].update(why="two\nlines"),
        lambda d: d.update(run_seconds=61),
        lambda d: d.update(paths=["../outside"]),
        lambda d: d["command"].append("/abs/path"),
    ],
)
def test_benchmark_json_rejects(mutate):
    doc = _benchmark_json()
    mutate(doc)
    assert spec.check_benchmark_json(doc)


# --------------------------------------------------------------------------- #
# open-loop accounting
# --------------------------------------------------------------------------- #
class Refused(Exception):
    pass


class Expired(Exception):
    pass


def test_open_loop_accounts_for_every_request():
    def submit(row):
        if row == 1:
            raise Refused()
        future = Future()
        if row == 2:
            future.set_exception(Expired())
        elif row == 3:
            future.set_exception(ValueError("boom"))
        else:
            threading.Timer(0.001, future.set_result, args=(row * 10,)).start()
        return future

    def classify(error):
        return {Refused: "refused", Expired: "expired"}.get(type(error), "failed")

    halves = []
    result = run_open_loop(
        submit, [0, 1, 2, 3, 4], rate=2000.0, n_requests=20, classify=classify,
        at_half=lambda: halves.append(True),
    )
    counts = {name: result.count(name) for name in ("ok", "failed", "refused", "expired")}
    assert counts == {"ok": 8, "failed": 4, "refused": 4, "expired": 4}
    assert result.sent == sum(counts.values()) == 20
    assert halves == [True]
    assert [result.values[i] for i in (0, 4, 5)] == [0, 40, 0]
    latencies = result.latencies()
    assert len(latencies) == 8 and (latencies > 0).all()
    assert np.isfinite(result.lateness).all()


# --------------------------------------------------------------------------- #
# pieces that need the program
# --------------------------------------------------------------------------- #
def test_ridge_probe_separates_separable_features():
    pytest.importorskip("repro")
    from perfbench.workloads import ridge_probe

    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(4), 50)
    features = np.eye(4)[labels] * 5.0 + rng.normal(scale=0.1, size=(200, 4))
    assert ridge_probe(features, labels, seed=1) == 1.0


def test_tracer_swaps_and_restores():
    pytest.importorskip("repro")
    from repro.core import losses, pretrainer
    from repro.data.corpus import ShardedCorpus

    from perfbench.tracing import Tracer

    original_loss, original_gather = losses.prototype_loss, ShardedCorpus.__dict__["gather"]
    tracer = Tracer(SpanRecorder("test"))
    tracer.install()
    try:
        assert pretrainer.prototype_loss is not original_loss
        assert pretrainer.prototype_loss.__wrapped__ is original_loss
        assert ShardedCorpus.__dict__["gather"] is not original_gather
    finally:
        tracer.uninstall()
    assert pretrainer.prototype_loss is original_loss
    assert losses.prototype_loss is original_loss
    assert ShardedCorpus.__dict__["gather"] is original_gather
