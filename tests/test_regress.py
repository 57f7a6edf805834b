"""Tests for repro.obs.regress: cross-run diffing + benchmark gating.

The diff side is exercised end to end on real telemetry produced by
the instrumented runners: same-config/same-seed files must diff to
zero significant deltas, and a fast-path-on vs fast-path-off pair must
agree on every protocol metric while timing metrics are reported
without gating.  The bench side is exercised on the committed
BENCH_*.json trajectory plus synthesized datapoints: an injected 2x
slowdown must exit non-zero, a thin history must stay warn-only, and
foreign machine fingerprints must be flagged rather than compared.
"""

from __future__ import annotations

import json

import pytest

from repro.assignment import shared_core
from repro.core.runners import run_local_broadcast
from repro.obs import TelemetrySink
from repro.obs.metrics import MetricsRegistry, ResourceSampler
from repro.obs.regress import (
    BENCH_SCHEMA_VERSION,
    RegressError,
    bench_check,
    check_regressions,
    collect_series,
    diff_files,
    diff_records,
    load_bench_datapoint,
    load_bench_history,
    machine_fingerprint,
)
from repro.obs.telemetry import read_telemetry
from repro.sim.channels import Network
from repro.sim.rng import derive_rng

REAL_BENCH = "BENCH_20260806.json"

MACHINE_A = {
    "machine": "x86_64",
    "system": "Linux",
    "python_version": "3.11.7",
    "python_implementation": "CPython",
    "cpu": {"brand_raw": "TestCPU"},
    "cpu_count": 8,
}
MACHINE_B = dict(MACHINE_A, machine="arm64", cpu={"brand_raw": "OtherCPU"})


def write_bench(path, means, machine=MACHINE_A):
    """Write a pytest-benchmark-shaped file with the given benchmark means."""
    payload = {
        "datetime": "2026-08-07T00:00:00",
        "machine_info": machine,
        "benchmarks": [
            {
                "fullname": name,
                "name": name,
                "stats": {
                    "mean": mean,
                    "stddev": mean * 0.02,
                    "median": mean,
                    "rounds": 5,
                    "min": mean * 0.95,
                },
            }
            for name, mean in sorted(means.items())
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def history_files(tmp_path, count=4, base=0.10):
    """*count* same-machine history datapoints with ~2% jitter."""
    paths = []
    for index in range(count):
        jitter = 1.0 + 0.02 * (index % 2)
        means = {"test_engine": base * jitter, "test_campaign": 2 * base * jitter}
        paths.append(write_bench(tmp_path / f"BENCH_h{index}.json", means))
    return paths


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


class TestBenchLoading:
    def test_loads_real_committed_datapoint(self):
        datapoint = load_bench_datapoint(REAL_BENCH)
        assert datapoint.schema_version == BENCH_SCHEMA_VERSION
        assert datapoint.stats
        assert all(stats.mean > 0 for stats in datapoint.stats.values())
        assert datapoint.fingerprint["machine"] == "x86_64"

    def test_normalized_form_round_trips(self, tmp_path):
        raw = write_bench(tmp_path / "raw.json", {"test_x": 0.5})
        first = load_bench_datapoint(raw)
        normalized = tmp_path / "norm.json"
        normalized.write_text(json.dumps(first.as_dict()), encoding="utf-8")
        second = load_bench_datapoint(normalized)
        assert second.stats == first.stats
        assert second.fingerprint == first.fingerprint

    def test_fingerprint_normalization(self):
        fingerprint = machine_fingerprint(MACHINE_A)
        assert fingerprint["machine"] == "x86_64"
        assert fingerprint["python_impl"] == "CPython"
        assert machine_fingerprint({})["machine"] == "unknown"

    def test_rejects_unrecognized_payload(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a benchmark file"}', encoding="utf-8")
        with pytest.raises(RegressError):
            load_bench_datapoint(bad)

    def test_history_sorted_deterministically(self, tmp_path):
        paths = history_files(tmp_path, count=3)
        forward = load_bench_history(paths)
        backward = load_bench_history(reversed(paths))
        assert [d.source for d in forward] == [d.source for d in backward]


class TestBenchGating:
    def test_injected_slowdown_is_a_regression(self, tmp_path):
        history = load_bench_history(history_files(tmp_path))
        candidate = load_bench_datapoint(
            write_bench(tmp_path / "cand.json", {"test_engine": 0.20, "test_campaign": 0.40})
        )
        report = check_regressions(history, candidate)
        assert not report.warn_only
        assert report.exit_code == 1
        regressed = {v.name for v in report.verdicts if v.verdict == "regression"}
        assert regressed == {"test_engine", "test_campaign"}

    def test_matching_candidate_passes(self, tmp_path):
        history = load_bench_history(history_files(tmp_path))
        candidate = load_bench_datapoint(
            write_bench(tmp_path / "cand.json", {"test_engine": 0.10, "test_campaign": 0.20})
        )
        report = check_regressions(history, candidate)
        assert report.exit_code == 0
        assert {v.verdict for v in report.verdicts} == {"ok"}

    def test_improvement_and_new_verdicts(self, tmp_path):
        history = load_bench_history(history_files(tmp_path))
        candidate = load_bench_datapoint(
            write_bench(
                tmp_path / "cand.json", {"test_engine": 0.01, "test_unseen": 1.0}
            )
        )
        report = check_regressions(history, candidate)
        verdicts = {v.name: v.verdict for v in report.verdicts}
        assert verdicts["test_engine"] == "improvement"
        assert verdicts["test_unseen"] == "new"
        assert report.exit_code == 0

    def test_thin_history_is_warn_only(self, tmp_path):
        history = load_bench_history(history_files(tmp_path, count=1))
        candidate = load_bench_datapoint(
            write_bench(tmp_path / "cand.json", {"test_engine": 0.30})
        )
        report = check_regressions(history, candidate)
        assert report.warn_only
        assert report.exit_code == 0
        assert any(v.verdict == "regression" for v in report.verdicts)

    def test_foreign_fingerprint_flagged_not_compared(self, tmp_path):
        paths = history_files(tmp_path, count=3)
        paths.append(
            write_bench(
                tmp_path / "BENCH_other.json", {"test_engine": 99.0}, machine=MACHINE_B
            )
        )
        history = load_bench_history(paths)
        candidate = load_bench_datapoint(
            write_bench(tmp_path / "cand.json", {"test_engine": 0.10})
        )
        report = check_regressions(history, candidate)
        assert report.comparable == 3
        assert any("fingerprint" in warning for warning in report.warnings)
        assert report.exit_code == 0

    def test_candidate_excluded_from_its_own_history(self, tmp_path):
        paths = history_files(tmp_path, count=3)
        candidate_path = write_bench(tmp_path / "BENCH_h9.json", {"test_engine": 0.30})
        history = load_bench_history(paths + [candidate_path])
        candidate = load_bench_datapoint(candidate_path)
        report = check_regressions(history, candidate)
        assert report.comparable == 3

    def test_warn_only_names_the_datapoint_shortfall(self, tmp_path):
        history = load_bench_history(history_files(tmp_path, count=2))
        candidate = load_bench_datapoint(
            write_bench(tmp_path / "cand.json", {"test_engine": 0.30})
        )
        report = check_regressions(history, candidate)
        assert report.warn_only
        assert any(
            "only 2 comparable datapoints" in warning
            and "need 3 to gate" in warning
            for warning in report.warnings
        )
        assert ", warn-only)" in report.render()

    def test_gating_engages_at_exactly_min_history(self, tmp_path):
        """The ratchet boundary: 2 comparable datapoints warn, a third
        flips the same regressing candidate to a hard exit 1."""
        candidate_path = write_bench(tmp_path / "cand.json", {"test_engine": 0.30})
        candidate = load_bench_datapoint(candidate_path)
        thin = load_bench_history(history_files(tmp_path, count=2))
        thin_report = check_regressions(thin, candidate)
        assert thin_report.exit_code == 0
        assert any(v.verdict == "regression" for v in thin_report.verdicts)
        full = load_bench_history(history_files(tmp_path, count=3))
        full_report = check_regressions(full, candidate)
        assert not full_report.warn_only
        assert full_report.exit_code == 1


class TestBenchCheckCli:
    def test_bench_check_detects_slowdown(self, tmp_path, capsys):
        history_files(tmp_path)
        candidate = write_bench(
            tmp_path / "cand.json", {"test_engine": 0.25, "test_campaign": 0.50}
        )
        report_path = tmp_path / "report.json"
        code = bench_check(
            str(candidate),
            [str(tmp_path / "BENCH_*.json")],
            report_path=str(report_path),
        )
        assert code == 1
        assert "regression" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["warn_only"] is False

    def test_bench_check_on_real_history_is_green(self, capsys):
        code = bench_check(None, [REAL_BENCH])
        assert code == 0
        assert "warn-only" in capsys.readouterr().out

    def test_committed_two_point_trajectory_is_warn_only(self, capsys):
        """The repo ships two BENCH_*.json datapoints: the default gate
        must load both, stay warn-only (needs 3), and say why."""
        code = bench_check(None, ["BENCH_*.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "warn-only" in out
        assert "comparable datapoints" in out

    def test_bench_check_via_repro_main(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        history_files(tmp_path)
        candidate = write_bench(tmp_path / "cand.json", {"test_engine": 0.10})
        code = repro_main(
            [
                "bench",
                "check",
                str(candidate),
                "--history",
                str(tmp_path / "BENCH_*.json"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 0.25

    def test_bench_check_no_datapoints_errors(self, tmp_path, capsys):
        code = bench_check(None, [str(tmp_path / "nothing_*.json")])
        assert code == 1


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
