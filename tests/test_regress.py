"""Tests for repro.obs.regress: cross-run telemetry diffing.

The diff is exercised end to end on real telemetry produced by the
instrumented runners: same-config/same-seed files must diff to zero
significant deltas, and a fast-path-on vs fast-path-off pair must
agree on every protocol metric while timing metrics are reported
without gating.
"""

from __future__ import annotations

import json

from repro.assignment import shared_core
from repro.core.runners import run_local_broadcast
from repro.obs import TelemetrySink
from repro.obs.metrics import MetricsRegistry, ResourceSampler
from repro.obs.regress import collect_series, diff_files, diff_records
from repro.obs.telemetry import read_telemetry
from repro.sim.channels import Network
from repro.sim.rng import derive_rng


def telemetry_pair(tmp_path, *, seed_b=5, instrument_b=True):
    """Two telemetry files from instrumented runs (same config)."""
    paths = []
    for tag, seed, instrument in (("a", 5, True), ("b", seed_b, instrument_b)):
        path = tmp_path / f"{tag}.jsonl"
        network = Network.static(shared_core(10, 5, 2, derive_rng(1, "regress-test")))
        with TelemetrySink(path) as sink:
            run_local_broadcast(
                network,
                seed=seed,
                max_slots=80,
                telemetry=sink,
                metrics=MetricsRegistry() if instrument else None,
                resources=ResourceSampler().start(),
            )
        paths.append(path)
    return paths


class TestTelemetryDiff:
    def test_same_seed_diff_has_zero_significant_deltas(self, tmp_path):
        path_a, path_b = telemetry_pair(tmp_path)
        report = diff_files(path_a, path_b)
        assert report.significant == []
        assert report.exit_code == 0
        assert "IDENTICAL protocol metrics" in report.render()
        verdicts = {delta.verdict for delta in report.deltas}
        assert "identical" in verdicts

    def test_fast_path_pair_agrees_on_protocol_metrics(self, tmp_path):
        path_a, path_b = telemetry_pair(tmp_path, instrument_b=False)
        records_a = read_telemetry(path_a)
        records_b = read_telemetry(path_b)
        assert records_a[0]["fast_path"] is False
        assert records_b[0]["fast_path"] is True
        report = diff_records(records_a, records_b)
        assert report.exit_code == 0
        protocol = [
            delta
            for delta in report.deltas
            if delta.klass == "protocol" and delta.verdict == "identical"
        ]
        assert any(delta.metric == "slots" for delta in protocol)
        timing = [delta for delta in report.deltas if delta.klass == "timing"]
        assert any(delta.metric == "elapsed_s" for delta in timing)
        assert all(delta.verdict != "significant" for delta in timing)
        assert any("fast_path" in note for note in report.notes)

    def test_protocol_divergence_is_significant(self, tmp_path):
        path_a, path_b = telemetry_pair(tmp_path, seed_b=6)
        report = diff_files(path_a, path_b)
        assert report.exit_code == 1
        assert any(delta.klass == "protocol" for delta in report.significant)
        assert "SIGNIFICANT" in report.render()

    def test_report_as_dict_is_json_ready(self, tmp_path):
        path_a, path_b = telemetry_pair(tmp_path)
        payload = diff_files(path_a, path_b).as_dict()
        json.dumps(payload)
        assert payload["a"].endswith("a.jsonl")
        assert all("verdict" in delta for delta in payload["deltas"])


class TestCollectSeries:
    def test_run_record_series_shapes(self, tmp_path):
        path_a, _ = telemetry_pair(tmp_path)
        series = collect_series(read_telemetry(path_a))
        klasses = {key: klass for key, (klass, _) in series.items()}
        scope = "run/cogcast"
        assert klasses[(scope, "slots")] == "protocol"
        assert klasses[(scope, "elapsed_s")] == "timing"
        assert klasses[(scope, "timings.build.seconds")] == "timing"
        resource_keys = [
            key for key in klasses if key[1].startswith("resources.")
        ]
        assert resource_keys
        assert all(klasses[key] == "timing" for key in resource_keys)

    def test_embedded_metric_snapshots_become_series(self, tmp_path):
        path_a, _ = telemetry_pair(tmp_path)
        series = collect_series(read_telemetry(path_a))
        metric_keys = [key for key in series if "sim_slots" in key[1]]
        assert metric_keys
        for key in metric_keys:
            klass, samples = series[key]
            assert klass == "protocol"
            assert samples
