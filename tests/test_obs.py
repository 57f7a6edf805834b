"""Tests for repro.obs — probes, aggregators, telemetry.

The load-bearing guarantee is probe/trace parity: the
:class:`~repro.obs.metrics.MetricsRegistry` a run's
:class:`~repro.obs.metrics.MetricsProbe` feeds must hold *exactly* the
counts of :func:`~repro.sim.metrics.compute_metrics` over a full
:class:`~repro.sim.trace.EventTrace` of the same seeded run, including
under jamming and under the destructive collision model.
"""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.assignment import shared_core
from repro.baselines.runners import (
    run_hopping_together,
    run_rendezvous_aggregation,
    run_rendezvous_broadcast,
    run_stay_and_scan_broadcast,
)
from repro.core.runners import run_data_aggregation, run_gossip, run_local_broadcast
from repro.obs import (
    ActivityProbe,
    FixedHistogram,
    MetricsProbe,
    MetricsRegistry,
    MultiProbe,
    ProtocolProbe,
    SlotProbe,
    SpanProbe,
    StreamingStat,
    TelemetryError,
    TelemetrySink,
    TelemetryView,
    attach,
    campaign_record,
    experiment_record,
    read_telemetry,
    run_query,
    run_record,
    validate_record,
)
from repro.sim.adversary import RandomJammer
from repro.sim.channels import Network
from repro.sim.collision import DestructiveCollision, ProbedCollision
from repro.sim.engine import build_engine
from repro.sim.metrics import compute_metrics
from repro.sim.rng import derive_rng
from repro.sim.trace import EventTrace


def small_network(n=16, c=8, k=2, seed=3) -> Network:
    rng = derive_rng(seed, "test-obs-network")
    return Network.static(shared_core(n, c, k, rng).shuffled_labels(rng))


#: Registry instrument -> the compute_metrics field it must equal.
METRIC_FIELDS = (
    ("sim_slots", "slots_observed"),
    ("sim_broadcasts", "transmissions"),
    ("sim_collisions", "collisions"),
    ("sim_deliveries", "deliveries"),
    ("sim_wasted_listens", "wasted_listens"),
    ("sim_peak_contention", "peak_channel_contention"),
)


def assert_registry_matches(registry, expected, protocol="cogcast"):
    """*registry*'s channel counts equal *expected* (a TraceMetrics)."""
    instruments = registry.instruments()
    for name, field in METRIC_FIELDS:
        value = instruments[name].value(protocol=protocol)
        assert value == getattr(expected, field), name


class TestStreamingStat:
    def test_matches_batch_moments(self):
        samples = [3.0, 1.5, 4.0, 1.0, 5.5, 9.0, 2.5]
        stat = StreamingStat()
        for value in samples:
            stat.push(value)
        assert stat.count == len(samples)
        assert stat.minimum == min(samples)
        assert stat.maximum == max(samples)
        assert math.isclose(stat.mean, sum(samples) / len(samples))
        batch_mean = sum(samples) / len(samples)
        batch_var = sum((s - batch_mean) ** 2 for s in samples) / len(samples)
        assert math.isclose(stat.variance, batch_var)

    def test_empty_stat(self):
        stat = StreamingStat()
        assert stat.count == 0
        assert stat.mean == 0.0
        assert stat.variance == 0.0
        assert stat.minimum is None and stat.maximum is None

    def test_merge_equals_single_stream(self):
        left_samples, right_samples = [1.0, 2.0, 7.0], [4.0, 4.0, 0.5, 9.0]
        left, right, combined = StreamingStat(), StreamingStat(), StreamingStat()
        for value in left_samples:
            left.push(value)
            combined.push(value)
        for value in right_samples:
            right.push(value)
            combined.push(value)
        left.merge(right)
        assert left.count == combined.count
        assert left.minimum == combined.minimum
        assert left.maximum == combined.maximum
        assert math.isclose(left.mean, combined.mean)
        assert math.isclose(left.variance, combined.variance)

    def test_merge_into_empty(self):
        target, source = StreamingStat(), StreamingStat()
        source.push(2.0)
        source.push(4.0)
        target.merge(source)
        assert target.count == 2 and target.mean == 3.0

    def test_as_dict_round_trips_json(self):
        stat = StreamingStat()
        stat.push(1)
        assert json.loads(json.dumps(stat.as_dict()))["count"] == 1

    def test_single_sample_variance_is_zero(self):
        stat = StreamingStat()
        stat.push(42.0)
        assert stat.count == 1
        assert stat.mean == 42.0
        assert stat.variance == 0.0  # population variance of one sample
        assert stat.minimum == stat.maximum == 42.0


class TestFixedHistogram:
    def test_bucketing_and_overflow(self):
        hist = FixedHistogram(width=2.0, buckets=3)
        for value in (0, 1.9, 2.0, 5.9, 6.0, 100):
            hist.push(value)
        assert hist.counts == [2, 1, 1, 2]
        assert hist.total == 6
        assert hist.overflow == 2

    def test_constant_memory(self):
        hist = FixedHistogram(width=1.0, buckets=4)
        for value in range(10_000):
            hist.push(value % 50)
        assert len(hist.counts) == 5
        assert hist.total == 10_000

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            FixedHistogram().push(-0.1)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            FixedHistogram(width=0)
        with pytest.raises(ValueError):
            FixedHistogram(buckets=0)

    def test_quantile(self):
        hist = FixedHistogram(width=1.0, buckets=10)
        for value in range(10):
            hist.push(value)
        assert hist.quantile(0.1) == 1.0
        assert hist.quantile(1.0) == 10.0
        assert FixedHistogram().quantile(0.5) == 0.0

    def test_render_nonempty(self):
        hist = FixedHistogram(width=1.0, buckets=2)
        hist.push(0)
        assert "#" in hist.render()
        assert FixedHistogram().render() == "(empty histogram)"


class TestProbeTraceParity:
    """MetricsProbe must reproduce compute_metrics exactly."""

    def assert_parity(self, **run_kwargs):
        network = run_kwargs.pop("network", small_network())
        trace = EventTrace()
        registry = MetricsRegistry()
        result = run_local_broadcast(
            network,
            seed=11,
            max_slots=5000,
            trace=trace,
            metrics=registry,
            **run_kwargs,
        )
        expected = compute_metrics(trace)
        assert_registry_matches(registry, expected)
        return result, expected

    def test_clean_run(self):
        result, expected = self.assert_parity()
        assert result.completed
        assert expected.successes > 0

    def test_jammed_run(self):
        network = small_network()
        universe = sorted(network.assignment_at(0).universe)
        jammer = RandomJammer(universe, 3, derive_rng(9, "test-obs-jam"))
        _, expected = self.assert_parity(network=network, jammer=jammer)
        # A random jammer at this budget reliably burns some listens.
        assert expected.wasted_listens > 0

    def test_destructive_collisions(self):
        _, expected = self.assert_parity(collision=DestructiveCollision())
        # Destructive contention is exactly the undelivered-contended case.
        assert expected.undelivered_contended == expected.collisions

    def test_probe_without_trace_matches_trace_only_run(self):
        network = small_network()
        registry = MetricsRegistry()
        run_local_broadcast(network, seed=11, max_slots=5000, metrics=registry)
        trace = EventTrace()
        run_local_broadcast(network, seed=11, max_slots=5000, trace=trace)
        assert_registry_matches(registry, compute_metrics(trace))

    def test_probe_does_not_perturb_run(self):
        network = small_network()
        bare = run_local_broadcast(network, seed=11, max_slots=5000)
        probed = run_local_broadcast(
            network,
            seed=11,
            max_slots=5000,
            probe=MultiProbe([ActivityProbe(), SpanProbe()]),
            metrics=MetricsRegistry(),
        )
        assert (bare.slots, bare.completed, bare.informed_slots) == (
            probed.slots,
            probed.completed,
            probed.informed_slots,
        )


class TestActivityProbe:
    def test_per_node_accounting(self):
        network = small_network()
        act = ActivityProbe()
        result = run_local_broadcast(network, seed=4, max_slots=5000, probe=act)
        assert result.completed
        totals = act.as_dict()
        assert totals["nodes_seen"] == network.num_nodes
        # Every node acts every slot (COGCAST never idles).
        assert (
            totals["broadcast_slots"] + totals["listen_slots"] + totals["idle_slots"]
            == network.num_nodes * result.slots
        )
        assert act.active_slots(0) > 0
        assert len(act.busiest(3)) == 3


class TestMultiProbe:
    def test_fans_out_to_all_children(self):
        class SlotCounter(SlotProbe):
            slots = 0

            def on_slot_end(self, slot, active):
                self.slots += 1

        registry, counter = MetricsRegistry(), SlotCounter()
        multi = MultiProbe([MetricsProbe(registry, protocol="cogcast"), counter])
        assert not multi.observes_nodes
        result = run_local_broadcast(
            small_network(), seed=11, max_slots=5000, probe=multi
        )
        assert counter.slots == result.slots
        broadcasts = registry.instruments()["sim_broadcasts"]
        assert broadcasts.value(protocol="cogcast") > 0

    def test_node_hooks_only_reach_node_observers(self):
        class CountingSlotProbe(SlotProbe):
            """Asserts node hooks never reach a slot-level probe."""

        class CountingNodeProbe(ProtocolProbe):
            def __init__(self):
                self.actions = 0

            def on_action(self, slot, node, action):
                self.actions += 1

        node_probe = CountingNodeProbe()
        multi = MultiProbe([CountingSlotProbe(), node_probe])
        assert multi.observes_nodes
        run_local_broadcast(small_network(), seed=11, max_slots=5000, probe=multi)
        assert node_probe.actions > 0

    def test_children_fire_in_registration_order(self):
        calls: list[tuple[str, str]] = []

        class OrderedSlot(SlotProbe):
            def __init__(self, tag):
                self.tag = tag

            def on_slot_begin(self, slot):
                calls.append((self.tag, "slot_begin"))

            def on_slot_end(self, slot, active):
                calls.append((self.tag, "slot_end"))

        class OrderedNode(ProtocolProbe):
            def __init__(self, tag):
                self.tag = tag

            def on_slot_begin(self, slot):
                calls.append((self.tag, "slot_begin"))

            def on_action(self, slot, node, action):
                calls.append((self.tag, "action"))

        multi = MultiProbe([OrderedSlot("a"), OrderedNode("b"), OrderedSlot("c")])
        multi.on_slot_begin(0)
        assert calls == [("a", "slot_begin"), ("b", "slot_begin"), ("c", "slot_begin")]
        calls.clear()
        multi.on_action(0, 1, None)
        assert calls == [("b", "action")]  # slot-level children skipped
        calls.clear()
        multi.on_slot_end(0, 3)
        assert calls == [("a", "slot_end"), ("c", "slot_end")]

    def test_parity_through_multiprobe(self):
        network = small_network()
        trace = EventTrace()
        registry, activity = MetricsRegistry(), ActivityProbe()
        run_local_broadcast(
            network,
            seed=11,
            max_slots=5000,
            trace=trace,
            probe=MultiProbe([MetricsProbe(registry, protocol="cogcast"), activity]),
        )
        expected = compute_metrics(trace)
        assert_registry_matches(registry, expected)
        # Unjammed: every broadcast is a transmission, every win a success.
        totals = activity.as_dict()
        assert totals["broadcast_slots"] == expected.transmissions
        assert totals["win_slots"] == expected.successes


class TestAttach:
    def test_translation_hook(self):
        class Translations(SlotProbe):
            def __init__(self):
                self.seen = 0

            def on_translation(self, slot, node, label, channel):
                self.seen += 1

        network = small_network()
        probe = Translations()
        engine = build_engine(network, _cogcast_factory(), seed=2)
        attach(engine, probe, channels=True)
        engine.run(20, stop_when=lambda _: False)
        assert probe.seen > 0
        # Detaching restores the zero-cost path.
        network.attach_probe(None)
        before = probe.seen
        engine.run(5, stop_when=lambda _: False)
        assert probe.seen == before

    def test_contention_hook(self):
        class Contentions(SlotProbe):
            def __init__(self):
                self.calls = 0
                self.max_contenders = 0

            def on_contention(self, contenders, resolution):
                self.calls += 1
                self.max_contenders = max(self.max_contenders, contenders)

        probe = Contentions()
        engine = build_engine(small_network(), _cogcast_factory(), seed=2)
        attach(engine, probe, collision=True)
        assert isinstance(engine.collision, ProbedCollision)
        engine.run(50, stop_when=lambda _: False)
        assert probe.calls > 0
        assert probe.max_contenders >= 1

    def test_run_lifecycle_hooks(self):
        class Lifecycle(SlotProbe):
            def __init__(self):
                self.events = []

            def on_run_start(self, *, num_nodes, num_channels, overlap):
                self.events.append(("start", num_nodes, num_channels, overlap))

            def on_run_end(self, slots):
                self.events.append(("end", slots))

        network = small_network()
        probe = Lifecycle()
        engine = build_engine(network, _cogcast_factory(), seed=2, probe=probe)
        result = engine.run(10, stop_when=lambda _: False)
        assert probe.events[0] == (
            "start",
            network.num_nodes,
            network.channels_per_node,
            network.overlap,
        )
        assert probe.events[-1] == ("end", result.slots)


class TestTelemetryRecords:
    def test_run_record_valid(self):
        network = small_network()
        record = run_record(
            protocol="cogcast",
            seed=7,
            network=network,
            slots=42,
            outcome="completed",
        )
        assert validate_record(record) == []
        assert record["n"] == network.num_nodes
        assert record["universe"] == len(network.assignment_at(0).universe)

    def test_run_record_attaches_probe_counters_and_build_timing(self):
        activity = ActivityProbe()
        run_local_broadcast(small_network(), seed=7, max_slots=5000, probe=activity)
        record = run_record(
            protocol="cogcast",
            seed=7,
            network=small_network(),
            slots=10,
            outcome="completed",
            probe=activity,
            build_s=0.25,
        )
        assert validate_record(record) == []
        assert record["counters"] == activity.as_dict()
        assert record["timings"] == {"build": {"seconds": 0.25, "calls": 1}}

    def test_records_embed_span_summaries(self):
        spans = SpanProbe()
        run_data_aggregation(small_network(), [1.0] * 16, seed=3, spans=spans)
        record = run_record(
            protocol="cogcomp",
            seed=3,
            network=small_network(),
            slots=10,
            outcome="completed",
            spans=spans,
        )
        assert validate_record(record) == []
        assert record["spans"] == spans.summary()

        experiment = experiment_record(
            experiment_id="E01",
            seed=3,
            trials=1,
            fast=True,
            elapsed_s=0.1,
            rows=1,
            spans=spans,
        )
        assert validate_record(experiment) == []
        assert experiment["spans"]["informed"] == len(spans.informed)

    def test_run_record_extra_cannot_shadow(self):
        with pytest.raises(TelemetryError):
            run_record(
                protocol="cogcast",
                seed=0,
                network=small_network(),
                slots=1,
                outcome="completed",
                extra={"slots": 2},
            )

    def test_experiment_and_campaign_records_valid(self):
        assert (
            validate_record(
                experiment_record(
                    experiment_id="E01",
                    seed=0,
                    trials=None,
                    fast=True,
                    elapsed_s=0.5,
                    rows=4,
                )
            )
            == []
        )
        assert (
            validate_record(
                campaign_record(
                    name="sweep",
                    seed=0,
                    point={"n": 32},
                    trials=5,
                    mean=17.2,
                    elapsed_s=0.1,
                )
            )
            == []
        )

    def test_validation_catches_problems(self):
        assert validate_record([]) != []
        assert validate_record({"schema": 1, "kind": "bogus"}) != []
        record = run_record(
            protocol="cogcast",
            seed=0,
            network=small_network(),
            slots=1,
            outcome="completed",
        )
        for corruption in (
            {"schema": 99},
            {"seed": "zero"},
            {"seed": True},
            {"outcome": "exploded"},
            {"slots": "many"},
            {"counters": {"x": "one"}},
            {"timings": {"x": {"seconds": "slow", "calls": 1}}},
        ):
            assert validate_record({**record, **corruption}) != [], corruption
        missing = dict(record)
        del missing["protocol"]
        assert any("protocol" in p for p in validate_record(missing))


class TestTelemetrySink:
    def test_emit_and_read_back(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        network = small_network()
        with TelemetrySink(path) as sink:
            for seed in range(3):
                sink.emit(
                    run_record(
                        protocol="cogcast",
                        seed=seed,
                        network=network,
                        slots=10 + seed,
                        outcome="completed",
                    )
                )
            assert sink.count == 3
        records = read_telemetry(path)
        assert [r["seed"] for r in records] == [0, 1, 2]

    def test_appends_across_sinks(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        network = small_network()
        for _ in range(2):
            with TelemetrySink(path) as sink:
                sink.emit(
                    run_record(
                        protocol="cogcast",
                        seed=0,
                        network=network,
                        slots=1,
                        outcome="completed",
                    )
                )
        assert len(read_telemetry(path)) == 2

    def test_rejects_invalid_record(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetrySink(path) as sink:
            with pytest.raises(TelemetryError):
                sink.emit({"kind": "run"})
        assert not path.exists() or path.read_text() == ""

    def test_read_strict_and_lenient(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        good = run_record(
            protocol="cogcast",
            seed=0,
            network=small_network(),
            slots=1,
            outcome="completed",
        )
        path.write_text(json.dumps(good) + "\nnot json\n")
        with pytest.raises(TelemetryError):
            read_telemetry(path)
        assert len(read_telemetry(path, strict=False)) == 1

    def test_summarize(self):
        network = small_network()
        records = [
            run_record(
                protocol="cogcast",
                seed=seed,
                network=network,
                slots=10 * (seed + 1),
                outcome="completed" if seed else "budget",
            )
            for seed in range(2)
        ]
        view = TelemetryView(records)
        (row,) = run_query(view, kind="run", group_by=["protocol"])
        assert (row["protocol"], row["count"]) == ("cogcast", 2)
        assert (row["min"], row["max"]) == (10, 20)
        rows = run_query(view, kind="run", group_by=["protocol", "outcome"])
        assert [(r["outcome"], r["count"]) for r in rows] == [
            ("budget", 1),
            ("completed", 1),
        ]
        assert run_query(TelemetryView([])) == []


#: Why each runner's population declines the columnar kernel on a
#: vector backend (``None``: the kernel engages).
VECTOR_FALLBACK = {
    "cogcast": None,
    "gossip": "stop condition has no columnar form",
    "cogcomp": "stop condition has no columnar form",
    "rendezvous-broadcast": "protocol has no columnar program",
    "stay-and-scan": "protocol has no columnar program",
    "rendezvous-aggregation": "stop condition has no columnar form",
    "hopping-together": "protocol has no columnar program",
}


def emitted_records(run_all, backend):
    """Records of *run_all* run once bare and once with ``metrics=``.

    *run_all* drives every runner under test with the given extra
    keyword arguments; each runner gets a fresh registry.
    """
    handle = io.StringIO()
    sink = TelemetrySink(handle)
    run_all(lambda: {"telemetry": sink, "backend": backend})
    run_all(
        lambda: {"telemetry": sink, "backend": backend, "metrics": MetricsRegistry()}
    )
    return [json.loads(line) for line in handle.getvalue().splitlines()]


def assert_execution_paths(records, backend):
    """Every record names its backend, kernel, and why faster ones declined."""
    for record in records:
        assert validate_record(record) == []
        protocol = record["protocol"]
        metrics = record.get("metrics")
        assert record["backend"] == backend
        assert isinstance(record["elapsed_s"], float) and record["elapsed_s"] >= 0
        assert_build_timing(record)
        vector_reason = None if backend == "exact" else VECTOR_FALLBACK[protocol]
        columnar = backend != "exact" and vector_reason is None
        assert record.get("vector_fallback_reason") == vector_reason
        # Any probe (here the metrics feeder) forces the general kernel.
        assert record["fast_path"] is (not columnar and metrics is None)
        assert record.get("fast_path_reason") == (
            "probe attached" if metrics is not None and not columnar else None
        )
        if metrics is not None:
            (series,) = metrics["metrics"]["sim_runs"]["series"]
            assert series == {"labels": [protocol], "value": 1.0}


def assert_build_timing(record):
    """*record* carries exactly one timed section: the engine build."""
    (section,) = record["timings"].items()
    assert section[0] == "build"
    assert section[1]["calls"] == 1
    assert isinstance(section[1]["seconds"], float) and section[1]["seconds"] >= 0


class TestRunnerTelemetry:
    @pytest.mark.parametrize("backend", ["exact", "vector", "vector-replay"])
    def test_run_records_carry_build_timing(self, backend):
        from repro.sanitize import _normalize_telemetry

        network = small_network()
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        run_local_broadcast(
            network, seed=1, max_slots=5000, telemetry=sink, backend=backend
        )
        run_stay_and_scan_broadcast(network, seed=1, telemetry=sink, backend=backend)
        records = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert [record["protocol"] for record in records] == [
            "cogcast",
            "stay-and-scan",
        ]
        for record in records:
            assert validate_record(record) == []
            assert_build_timing(record)
            # The sanitizer's capture drops timings with the other
            # volatile fields before it bit-diffs two runs.
            normalized = _normalize_telemetry(record)
            assert "timings" not in normalized
            assert "elapsed_s" not in normalized
            assert normalized["slots"] == record["slots"]

    @pytest.mark.parametrize("backend", ["exact", "vector-replay"])
    def test_core_runners_emit_manifests(self, backend):
        network = small_network()

        def run_all(kwargs):
            run_local_broadcast(network, seed=1, max_slots=5000, **kwargs())
            run_gossip(network, {0: "a", 1: "b"}, seed=1, max_slots=5000, **kwargs())
            run_data_aggregation(
                network, list(range(network.num_nodes)), seed=1, **kwargs()
            )

        records = emitted_records(run_all, backend)
        assert [r["protocol"] for r in records] == ["cogcast", "gossip", "cogcomp"] * 2
        assert_execution_paths(records, backend)

    @pytest.mark.parametrize("backend", ["exact", "vector-replay"])
    def test_baseline_runners_emit_manifests(self, backend):
        network = small_network()
        assignment = network.assignment_at(0)

        def run_all(kwargs):
            run_rendezvous_broadcast(network, seed=1, max_slots=50_000, **kwargs())
            run_stay_and_scan_broadcast(network, seed=1, **kwargs())
            run_rendezvous_aggregation(
                network,
                list(range(network.num_nodes)),
                seed=1,
                max_slots=50_000,
                **kwargs(),
            )
            run_hopping_together(assignment, seed=1, max_slots=50_000, **kwargs())

        records = emitted_records(run_all, backend)
        assert [r["protocol"] for r in records] == [
            "rendezvous-broadcast",
            "stay-and-scan",
            "rendezvous-aggregation",
            "hopping-together",
        ] * 2
        assert_execution_paths(records, backend)

    def test_budget_outcome_recorded(self):
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        run_local_broadcast(small_network(), seed=1, max_slots=1, telemetry=sink)
        record = json.loads(handle.getvalue())
        assert record["outcome"] == "budget"

    def test_manifest_emitted_before_require_completion_raises(self):
        from repro.types import SimulationError

        handle = io.StringIO()
        sink = TelemetrySink(handle)
        with pytest.raises(SimulationError):
            run_local_broadcast(
                small_network(),
                seed=1,
                max_slots=1,
                telemetry=sink,
                require_completion=True,
            )
        assert json.loads(handle.getvalue())["outcome"] == "budget"


class TestHarnessTelemetry:
    def test_run_with_telemetry_emits_experiment_record(self):
        from repro.experiments.harness import (
            ExperimentSpec,
            Table,
            run_with_telemetry,
        )

        def fake_run(trials=5, seed=0, fast=False):
            return Table(
                experiment_id="EXX",
                title="fake",
                claim="none",
                columns=("n",),
                rows=((1,), (2,)),
            )

        spec = ExperimentSpec(
            experiment_id="EXX", title="fake", claim="none", run=fake_run
        )
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        table = run_with_telemetry(spec, sink, seed=3, fast=True)
        assert len(table.rows) == 2
        record = json.loads(handle.getvalue())
        assert validate_record(record) == []
        assert record["experiment"] == "EXX"
        assert record["trials"] is None
        assert record["rows"] == 2

    def test_campaign_run_emits_point_records(self):
        from repro.experiments.campaign import Campaign

        campaign = Campaign(
            name="obs-sweep", measure=lambda point, seed: float(point["n"] + seed % 3)
        )
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        grid = [{"n": 4}, {"n": 8}]
        results = campaign.run(grid, trials=3, seed=0, telemetry=sink)
        records = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert len(records) == len(grid)
        assert all(validate_record(r) == [] for r in records)
        for record, result in zip(records, results):
            assert record["point"] == dict(result.point)
            assert math.isclose(record["mean"], result.summary.mean)


def _cogcast_factory(source=0, body=None):
    from repro.core.cogcast import CogCast

    def factory(view):
        return CogCast(view, is_source=(view.node_id == source), body=body)

    return factory
