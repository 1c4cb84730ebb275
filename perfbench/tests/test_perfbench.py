"""The benchmark's own tests: ``python -m pytest perfbench/tests`` from the root."""

import json
from pathlib import Path

import pytest

from perfbench import stats, tracing
from perfbench.workloads import END_TO_END

ROOT = Path(__file__).resolve().parents[2]


def test_nearest_rank_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 90) == 90
    assert stats.nearest_rank(values, 50) == 50
    with pytest.raises(ValueError):
        stats.nearest_rank(values, 91)  # only 9 samples beyond rank 91
    assert stats.nearest_rank(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        stats.nearest_rank(list(range(19)), 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_tail_picks_highest_supported_percentile():
    assert stats.tail(list(range(1000))) == (99.0, 989)
    assert stats.tail(list(range(100))) == (90.0, 89)
    assert stats.tail(list(range(40))) == (75.0, 29)
    assert stats.tail(list(range(39))) is None


def test_metric_names_are_well_formed():
    for name in [*END_TO_END, *tracing.PER_LAYER]:
        assert stats.check_name(name) == name
    for bad in ("has space", "a/b", "", "x" * 65):
        with pytest.raises(ValueError):
            stats.check_name(bad)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(tracing.REQUIRED_SPANS)


def test_failed_frames_counts_dropped_quarantined_and_missing():
    statuses = {0: "stored", 1: "dropped", 2: "quarantined", 3: "stored", 4: "stored",
                5: "stored", 6: "pending"}
    receipts = {0: 1, 1: 0, 2: 0, 4: 1, 5: 2, 6: 0, 7: 1}
    failed = stats.failed_frames(9, statuses, receipts, mismatched={0})
    # 0: wrong bytes; 1 dropped; 2 quarantined; 3 no receipt; 5 stored
    # twice; 6 never ACKed; 7 and 8 never sent.  Only 4 counts as stored.
    assert failed == {0, 1, 2, 3, 5, 6, 7, 8}
    assert stats.failed_frames(2, {0: "stored", 1: "stored"}, {0: 1, 1: 1}) == set()


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_measures_from_due_time_when_the_server_stalls():
    clock = FakeClock()
    rate, n = 2.0, 10
    stored_at = {}

    def stalled_send(i):
        # A stalled server: every frame takes two periods to be stored.
        clock.now += 2.0 / rate
        stored_at[i] = clock.now

    lags = stats.open_loop(n, rate, clock.now, stalled_send, clock, clock.sleep)
    latencies = [stored_at[i] - (100.0 + i / rate) for i in range(n)]
    assert len(stored_at) == n  # the offered load is not thinned
    assert all(b > a for a, b in zip(latencies, latencies[1:]))  # latency grows
    assert latencies[-1] == pytest.approx(latencies[0] + (n - 1) / rate)
    assert lags[-1] == pytest.approx((n - 1) / rate)


def test_open_loop_keeps_schedule_when_the_server_keeps_up():
    clock = FakeClock()
    lags = stats.open_loop(5, 4.0, clock.now, lambda i: None, clock, clock.sleep)
    assert lags == [0.0] * 5
    assert clock.now == pytest.approx(100.0 + 4 / 4.0)


class Layer:
    def outer(self, inner):
        return inner()

    def leaf(self):
        return 7


def test_tracer_self_time_nesting_and_restore():
    tracer = tracing.Tracer()
    originals = dict(vars(Layer))
    tracer.patch_method(__name__, "Layer", "outer", "a.outer")
    tracer.patch_method(__name__, "Layer", "leaf", "b.leaf",
                        lambda args, result: {"frame": 3, "points": result})
    layer = Layer()
    assert layer.outer(layer.leaf) == 7
    assert layer.outer(lambda: layer.outer(layer.leaf)) == 7  # a-in-a: one span
    summary = tracer.summary()
    assert summary["a.outer"]["calls"] == 2
    assert summary["b.leaf"]["calls"] == 2
    assert summary["b.leaf"]["points"] == 14
    outer = summary["a.outer"]
    assert outer["self_s"] == pytest.approx(outer["s"] - summary["b.leaf"]["s"])
    assert all(span[5] == (None, 3) for span in tracer.spans if span[1] == "b.leaf")
    tracer.restore()
    assert vars(Layer)["outer"] is originals["outer"]
    assert vars(Layer)["leaf"] is originals["leaf"]


def test_layer_metrics_cover_the_per_layer_table():
    metrics = tracing.layer_metrics({}, {})
    assert set(metrics) == set(tracing.PER_LAYER)
    assert all(value == 0 for value in metrics.values())
