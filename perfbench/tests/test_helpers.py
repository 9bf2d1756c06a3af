"""Tests of the benchmark's own helpers: order statistics and tracing.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import orderstats  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 11))
        assert orderstats.percentile(values, 1, 2) == 5
        assert orderstats.percentile(values, 9, 10) == 9
        assert orderstats.percentile(values, 99, 100) == 10

    def test_single_sample(self):
        assert orderstats.percentile([7], 1, 2) == 7
        assert orderstats.percentile([7], 999, 1000) == 7

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            orderstats.percentile([], 1, 2)

    def test_exact_integer_ranks(self):
        # 0.999 * 1000 is not exact in floating point; ranks must be
        assert orderstats.rank(999, 1000, 1000) == 999
        assert orderstats.rank(9, 10, 112) == 101

    def test_median(self):
        assert orderstats.median([3, 1, 2]) == 2
        assert orderstats.median([4, 1, 2, 3]) == 2.5


class TestTailRung:
    @pytest.mark.parametrize(
        "n, rung",
        [
            (10, (1, 2)),
            (20, (1, 2)),
            (96, (1, 2)),  # p90 would leave 9 samples beyond it
            (100, (9, 10)),
            (112, (9, 10)),
            (999, (9, 10)),
            (1000, (99, 100)),
            (8191, (99, 100)),  # p99.9 would leave 8
            (10000, (999, 1000)),
            (24579, (999, 1000)),
            (100000, (9999, 10000)),
        ],
    )
    def test_highest_rung_with_ten_beyond(self, n, rung):
        assert orderstats.tail_rung(n) == rung
        num, den = rung
        if n >= 20:
            assert n - orderstats.rank(num, den, n) >= orderstats.MIN_BEYOND

    def test_labels(self):
        assert orderstats.rung_label(1, 2) == "p50"
        assert orderstats.rung_label(99, 100) == "p99"
        assert orderstats.rung_label(999, 1000) == "p99.9"
        assert orderstats.rung_label(99999, 100000) == "p99.999"


class FakeClock:
    """perf_counter_ns stand-in that advances only when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter_ns", fake)
    return fake


class TestSelfTime:
    def test_child_time_is_subtracted_from_the_parent(self, clock):
        tracer = tracing.Tracer()

        def inner():
            clock.now += 3

        inner = tracer.wrap("inner", inner)

        def outer():
            clock.now += 2
            inner()
            clock.now += 5

        tracer.wrap("outer", outer)()
        assert tracer.layers["outer"].total_ns == 10
        assert tracer.layers["outer"].self_ns == 7
        assert tracer.layers["inner"].self_ns == 3

    def test_grandchildren_count_only_against_their_parent(self, clock):
        tracer = tracing.Tracer()
        leaf = tracer.wrap("leaf", lambda: setattr(clock, "now", clock.now + 1))

        def middle():
            clock.now += 4
            leaf()

        middle = tracer.wrap("middle", middle)

        def top():
            clock.now += 10
            middle()

        tracer.wrap("top", top)()
        assert tracer.layers["top"].self_ns == 10
        assert tracer.layers["middle"].self_ns == 4
        assert tracer.layers["leaf"].self_ns == 1

    def test_nested_calls_of_one_layer_are_not_counted_twice(self, clock):
        tracer = tracing.Tracer()

        def work(depth):
            clock.now += 1
            if depth:
                traced(depth - 1)

        traced = tracer.wrap("layer", work)
        traced(2)
        assert tracer.layers["layer"].calls == 3
        assert tracer.layers["layer"].self_ns == 3

    def test_iterate_times_each_next(self, clock):
        tracer = tracing.Tracer()

        def produce():
            for item in "ab":
                clock.now += 2
                yield item
            clock.now += 1

        consumed = []
        for item in tracer.iterate("gen", produce()):
            clock.now += 100  # the consumer's time is not the producer's
            consumed.append(item)
        assert consumed == ["a", "b"]
        assert tracer.layers["gen"].self_ns == 5
        assert tracer.layers["gen"].calls == 3  # two items and the exhausting call


class TestRepeatRatio:
    def test_calls_with_seen_keys_are_repeats(self):
        tracer = tracing.Tracer()
        fn = tracer.wrap("closure", lambda self, w, e, connected: None, key=tracing.closure_key)
        owner = object()
        fn(owner, 1, 2, True)
        fn(owner, 1, 2, True)
        fn(owner, 1, 2, connected=False)
        fn(object(), 1, 2, True)
        fn(owner, 1, 2, connected=True)
        totals = tracer.layers["closure"]
        assert (totals.calls, totals.repeats) == (5, 2)
        assert totals.repeat_ratio == pytest.approx(0.4)

    def test_inactive_tracer_records_nothing(self):
        tracer = tracing.Tracer()
        fn = tracer.wrap("label", lambda *args: 42, key=tracing.label_key)
        tracer.active = False
        assert fn("model", 1, 1, "phi") == 42
        totals = tracer.layers["label"]
        assert (totals.calls, totals.repeats, totals.repeat_ratio) == (0, 0, 0.0)

    def test_null_tracer_does_not_wrap(self):
        fn = len
        assert tracing.NullTracer().wrap("x", fn) is fn


class TestAggregation:
    def test_op_delays_are_medians_over_rounds(self):
        rounds = [{"delays_us": [1.0, 50.0, 3.0]}, {"delays_us": [2.0, 5.0, 3.5]}, {"delays_us": [9.0, 6.0, 3.0]}]
        assert run.op_delays(rounds) == [2.0, 3.0, 6.0]

    def test_end_to_end_uses_medians_over_rounds(self):
        delays = [float(i) for i in range(1, 101)]
        rounds = [
            {"setup_s": s, "ops": 100, "timed_s": t, "delays_us": [d * k for d in delays], "peak_rss_mb": m}
            for s, t, k, m in [(0.1, 1.0, 1.0, 30.0), (0.3, 2.0, 3.0, 31.0), (0.2, 1.0, 2.0, 29.0)]
        ]
        assert run.end_to_end(rounds) == {
            "setup_s": 0.2,
            "ops_per_s": 100.0,  # round rates 100, 50 and 100
            "delay_p50_us": 100.0,  # op 50 at the median speed-up of 2
            "delay_tail_us": 180.0,  # p90 of 100 ops: op 90
            "peak_rss_mb": 31.0,
        }
        assert sorted(run.end_to_end(rounds)) == sorted(run.declared_units(0))

    def test_per_layer_medians_and_overhead(self):
        def round_(traced, wall, calls):
            layers = {"kripke.closure.calls": calls} if traced else None
            return {"traced": traced, "setup_s": 0.5, "timed_s": wall - 0.5, "layers": layers}

        rounds = [round_(False, 2.0, 0), round_(True, 3.0, 10), round_(False, 2.2, 0), round_(True, 3.4, 12)]
        values = run.per_layer(rounds)
        assert values["kripke.closure.calls"] == 11
        assert values["trace.overhead_s"] == pytest.approx(3.2 - 2.1)
