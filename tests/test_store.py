"""Tests for the content-addressed run store and its query plane.

Covers the PR's tentpole end to end: provenance stamping (canonical
config hashes stable under dict reordering, git-SHA code version with
a ``pkg-`` fallback outside a repo), store ingest with
dedup-on-reingest, the filter/group-by/aggregate query engine with
bit-identical repeated output, the live ``follow`` tail, the anomaly
``explain`` join, provenance-aware shard merging, and the
``--kind`` / "no matching records" CLI satellite.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import repro
from repro.assignment import shared_core
from repro.core.runners import run_local_broadcast
from repro.experiments.campaign import Campaign
from repro.obs.cli import build_parser, dispatch
from repro.obs.provenance import (
    CODE_VERSION,
    canonical_json,
    config_hash,
    detect_code_version,
    provenance_block,
    run_key,
    validate_provenance,
)
from repro.obs.query import (
    aggregate_values,
    explain_records,
    follow_file,
    parse_filters,
    render_rows,
    run_query,
    span_path_of,
)
from repro.obs.spans import SpanProbe
from repro.obs.store import RunStore, manifest_entry, run_id_of
from repro.obs.telemetry import (
    TelemetrySink,
    read_telemetry,
    run_record,
    validate_record,
)
from repro.obs.watchdog import SlotBudgetWatchdog
from repro.sim.channels import Network


def _network(seed: int, n: int = 8, c: int = 6, k: int = 2) -> Network:
    """A small static network for telemetry fixtures."""
    return Network.static(shared_core(n, c, k, random.Random(seed)))


def _write_runs(path, *, seeds=(0, 1, 2), watchdog_budget=None, spans=False):
    """Emit one instrumented COGCAST run per seed into a telemetry file."""
    with TelemetrySink(path) as sink:
        for seed in seeds:
            watchdogs = (
                [SlotBudgetWatchdog(budget=watchdog_budget)]
                if watchdog_budget is not None
                else []
            )
            run_local_broadcast(
                _network(seed),
                seed=seed,
                max_slots=200,
                telemetry=sink,
                spans=SpanProbe() if spans else None,
                watchdogs=watchdogs,
            )
    return read_telemetry(path)


class TestProvenance:
    def test_config_hash_stable_across_dict_ordering(self):
        """Key order never changes the hash; nesting included."""
        a = {"protocol": "cogcast", "n": 100, "nested": {"x": 1, "y": 2}}
        b = {"nested": {"y": 2, "x": 1}, "n": 100, "protocol": "cogcast"}
        assert config_hash(a) == config_hash(b)
        assert re.fullmatch(r"[0-9a-f]{16}", config_hash(a))

    def test_different_configs_hash_differently(self):
        assert config_hash({"n": 8}) != config_hash({"n": 9})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_code_version_falls_back_outside_a_repo(self, tmp_path):
        """Pointing detection at a non-repo yields the pkg- fallback."""
        assert detect_code_version(tmp_path) == _pkg_version()

    def test_package_runs_outside_a_git_checkout(self, tmp_path):
        """A plain copy of the package imports, runs, and stamps the
        ``pkg-`` fallback (provenance reads ``repro.__version__`` while
        the package root is still importing its subpackages)."""
        shutil.copytree(
            os.path.dirname(repro.__file__),
            tmp_path / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        env["GIT_CEILING_DIRECTORIES"] = str(tmp_path.parent)

        def run(*args):
            return subprocess.run(
                [sys.executable, *args],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )

        listed = run("-m", "repro", "list")
        assert listed.returncode == 0, listed.stderr
        assert "E01" in listed.stdout
        version = run(
            "-c",
            "import repro.obs.provenance as p; print(p.__file__); print(p.CODE_VERSION)",
        )
        assert version.returncode == 0, version.stderr
        location, code_version = version.stdout.split()
        assert location.startswith(str(tmp_path))
        assert code_version == _pkg_version()

    def test_import_time_code_version_shape(self):
        """Either a 12-hex git SHA (maybe -dirty) or the pkg fallback."""
        assert re.fullmatch(
            r"[0-9a-f]{12}(-dirty)?|pkg-.+", CODE_VERSION
        ), CODE_VERSION

    def test_provenance_block_and_validator_agree(self):
        block = provenance_block({"kind": "run", "protocol": "x"})
        assert validate_provenance(block) == []
        assert block["config_hash"] == config_hash(block["config"])

    def test_validator_flags_tampered_config(self):
        block = provenance_block({"kind": "run", "protocol": "x"})
        block["config"]["protocol"] = "y"
        assert any(
            "does not match" in problem
            for problem in validate_provenance(block)
        )
        assert validate_provenance("not a dict") != []

    def test_run_record_is_stamped_and_valid(self):
        record = run_record(
            protocol="cogcast",
            seed=3,
            network=_network(0),
            slots=10,
            outcome="completed",
        )
        assert validate_record(record) == []
        assert record["provenance"]["config"]["protocol"] == "cogcast"
        assert record["provenance"]["config"]["backend"] == record["backend"]
        assert run_key(record) == (
            record["provenance"]["config_hash"],
            3,
            record["provenance"]["code_version"],
        )

    def test_schema_rejects_bad_backend_and_reason(self):
        record = run_record(
            protocol="cogcast",
            seed=0,
            network=_network(0),
            slots=1,
            outcome="completed",
        )
        record["backend"] = 7
        record["vector_fallback_reason"] = ["not", "a", "string"]
        record["fast_path_reason"] = False
        problems = validate_record(record)
        assert any("backend" in p for p in problems)
        assert any("vector_fallback_reason" in p for p in problems)
        assert any("fast_path_reason" in p for p in problems)


class TestExecutionPathFields:
    def test_exact_backend_recorded_without_fallback_reason(self, tmp_path):
        records = _write_runs(tmp_path / "t.jsonl", seeds=(0,))
        (record,) = records
        assert record["backend"] == "exact"
        assert "vector_fallback_reason" not in record
        assert isinstance(record["fast_path"], bool)

    def test_vector_fallback_reason_recorded(self, tmp_path):
        """A keep-log COGCAST run under the vector backend records why
        the columnar kernel declined."""
        pytest.importorskip("numpy")
        path = tmp_path / "t.jsonl"
        with TelemetrySink(path) as sink:
            run_local_broadcast(
                _network(0),
                seed=0,
                max_slots=200,
                telemetry=sink,
                spans=SpanProbe(),  # span probe forces the exact path
                backend="vector-replay",
            )
        (record,) = read_telemetry(path)
        assert record["backend"] == "vector-replay"
        assert isinstance(record["vector_fallback_reason"], str)
        assert record["vector_fallback_reason"]


class TestRunStore:
    def test_ingest_and_dedup_on_reingest(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        _write_runs(shard)
        store = RunStore(tmp_path / "store")
        first = store.ingest([shard])
        assert first.ingested == 3
        assert first.deduplicated == 0
        again = store.ingest([shard])
        assert again.ingested == 0
        assert again.deduplicated == 3
        assert len(store.entries()) == 3

    def test_reingest_recovers_runs_after_a_crash_before_the_manifest(
        self, tmp_path, monkeypatch
    ):
        """Objects written by an ingest that died before its manifest
        write were never accepted: the next ingest stores them."""
        shard = tmp_path / "shard.jsonl"
        _write_runs(shard)
        store = RunStore(tmp_path / "store")

        def crash(manifest):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(RunStore, "_write_manifest", staticmethod(crash))
            with pytest.raises(OSError, match="disk full"):
                store.ingest([shard])
        assert len(list((store.root / "objects").rglob("*.json"))) == 3
        assert store.entries() == []
        report = store.ingest([shard])
        assert report.ingested == 3
        assert report.deduplicated == 0
        assert len(store.entries()) == 3

    def test_records_differing_only_in_timings_dedupe(self, tmp_path):
        shard = tmp_path / "shard0.jsonl"
        (record,) = _write_runs(shard, seeds=(0,))
        assert record["timings"]["build"]["calls"] == 1
        rerun = tmp_path / "shard1.jsonl"
        with TelemetrySink(rerun) as sink:
            sink.emit({**record, "timings": {"build": {"seconds": 9.0, "calls": 1}}})
        store = RunStore(tmp_path / "store")
        report = store.ingest([shard, rerun])
        assert report.ingested == 1
        assert report.deduplicated == 1
        (entry,) = store.entries()
        assert store.load(entry["run_id"])["record"] == record

    def test_truncated_object_is_replaced_on_ingest(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        records = _write_runs(shard, seeds=(4,))
        store = RunStore(tmp_path / "store")
        key = run_key(records[0])
        path = store.object_path(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"schema": 1, "rec')
        report = store.ingest([shard])
        assert report.ingested == 1
        assert store.load(run_id_of(key))["record"] == records[0]
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_concurrent_ingests_keep_every_entry(self, tmp_path):
        """Three processes ingesting disjoint shards at once end with
        the union of their entries.  Each flush sleeps, so the ingests
        are in flight together; without the manifest lock a later
        manifest write drops an earlier ingest's entries."""
        shards = []
        for first in (0, 3, 6):
            shards.append(tmp_path / f"shard-{first}.jsonl")
            _write_runs(shards[-1], seeds=(first, first + 1, first + 2))
        script = (
            "import sys, time\n"
            "from repro.obs.store import RunStore\n"
            "flush = RunStore._flush\n"
            "def slow(self, *args):\n"
            "    time.sleep(0.1)\n"
            "    return flush(self, *args)\n"
            "RunStore._flush = slow\n"
            "RunStore(sys.argv[1]).ingest([sys.argv[2]])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        store = tmp_path / "store"
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(store), str(shard)],
                env=env,
                stderr=subprocess.PIPE,
                text=True,
            )
            for shard in shards
        ]
        for worker in workers:
            _, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr
        assert len(RunStore(store).entries()) == 9
        assert sorted(p.name for p in store.iterdir()) == [
            "manifest.json",
            "manifest.lock",
            "objects",
        ]

    def test_object_layout_is_keyed_by_provenance_triple(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        records = _write_runs(shard, seeds=(5,))
        store = RunStore(tmp_path / "store")
        store.ingest([shard])
        key = run_key(records[0])
        assert key is not None
        path = store.object_path(key)
        assert path.exists()
        assert path.parent.name == "5"  # seed directory
        stored = store.load(run_id_of(key))
        assert stored["record"]["seed"] == 5

    def test_anomalies_attach_to_their_run(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        records = _write_runs(shard, seeds=(0, 1), watchdog_budget=1)
        assert any(r["kind"] == "anomaly" for r in records)
        store = RunStore(tmp_path / "store")
        report = store.ingest([shard])
        assert report.anomalies_attached >= 2
        for entry in store.entries():
            stored = store.load(entry["run_id"])
            assert entry["anomalies"] == len(stored["anomalies"])
            for anomaly in stored["anomalies"]:
                assert anomaly["seed"] == stored["record"]["seed"]

    def test_unstamped_records_are_skipped_and_counted(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        record = run_record(
            protocol="cogcast",
            seed=0,
            network=_network(0),
            slots=4,
            outcome="completed",
        )
        del record["provenance"]
        shard.write_text(json.dumps(record) + "\n")
        report = RunStore(tmp_path / "store").ingest([shard])
        assert report.ingested == 0
        assert report.unstamped == 1

    def test_campaign_round_trip_dedups_per_triple(self, tmp_path):
        """The acceptance criterion: a campaign ingested twice keeps one
        stored run per (config hash, seed, code version)."""

        def measure(point, seed):
            return float(point["n"]) + seed % 3

        campaign = Campaign(name="acc", measure=measure)
        shard = tmp_path / "campaign.jsonl"
        with TelemetrySink(shard) as sink:
            campaign.run(
                [{"n": 8}, {"n": 10}, {"n": 12}],
                trials=2,
                seed=7,
                telemetry=sink,
            )
        store = RunStore(tmp_path / "store")
        store.ingest([shard])
        store.ingest([shard])
        entries = store.entries()
        assert len(entries) == 3
        assert len({entry["config_hash"] for entry in entries}) == 3

    def test_manifest_entry_carries_query_fields(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        records = _write_runs(shard, seeds=(0,), spans=True)
        entry = manifest_entry(records[0], [])
        for field in ("kind", "protocol", "n", "slots", "outcome", "backend"):
            assert field in entry
        assert entry["fast_path"] is False
        assert entry["fast_path_reason"] == "probe attached"


class TestQuery:
    @pytest.fixture()
    def store(self, tmp_path):
        """A store holding three runs across two network sizes."""
        shard = tmp_path / "shard.jsonl"
        with TelemetrySink(shard) as sink:
            for seed, n in ((0, 8), (1, 8), (2, 12)):
                run_local_broadcast(
                    _network(seed, n=n), seed=seed, max_slots=300, telemetry=sink
                )
        store = RunStore(tmp_path / "store")
        store.ingest([shard])
        return store

    def test_filters_parse_and_match(self, store):
        rows = run_query(store, filters=parse_filters(["n>=12"]))
        assert rows[0]["count"] == 1
        rows = run_query(store, filters=parse_filters(["protocol=cogcast"]))
        assert rows[0]["count"] == 3
        rows = run_query(store, filters=parse_filters(["backend!=exact"]))
        assert rows == [] or rows[0]["count"] == 0

    def test_null_filters_match_absent_fields(self, store):
        """Exact-backend runs record no ``vector_fallback_reason``, so
        ``=null`` matches all three and ``!=null`` none."""

        def count(token):
            rows = run_query(store, filters=parse_filters([token]))
            return rows[0]["count"] if rows else 0

        assert count("vector_fallback_reason=null") == 3
        assert count("vector_fallback_reason!=null") == 0
        assert count("backend!=none") == 3
        assert count("backend=null") == 0

    def test_bad_filter_token_raises(self):
        with pytest.raises(ValueError, match="bad filter"):
            parse_filters(["protocol"])

    def test_group_by_output_is_bit_identical(self, store):
        rows = run_query(store, group_by=["n"], stat="slots")
        first = render_rows(rows, stat="slots")
        second = render_rows(
            run_query(store, group_by=["n"], stat="slots"), stat="slots"
        )
        assert first == second
        assert first.splitlines()[0].startswith("n")
        assert len(first.splitlines()) == 3  # header + two n groups

    def test_aggregates_use_streaming_kit(self):
        stats = aggregate_values([2.0, 4.0, 6.0, 8.0])
        assert stats["count"] == 4
        assert stats["mean"] == 5.0
        assert stats["min"] == 2.0 and stats["max"] == 8.0
        assert stats["p50"] <= stats["p95"] <= 8.0
        assert aggregate_values([])["count"] == 0

    def test_metric_stat_reaches_into_stored_objects(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        shard = tmp_path / "shard.jsonl"
        with TelemetrySink(shard) as sink:
            registry = MetricsRegistry()
            run_local_broadcast(
                _network(0), seed=0, max_slots=200,
                telemetry=sink, metrics=registry,
            )
        store = RunStore(tmp_path / "store")
        store.ingest([shard])
        rows = run_query(store, stat="metric:sim_broadcasts")
        assert rows[0]["count"] == 1
        assert rows[0]["mean"] > 0

    def test_empty_store_queries_cleanly(self, tmp_path):
        rows = run_query(RunStore(tmp_path / "missing"))
        assert rows == []
        assert render_rows(rows, stat="slots") == "no matching runs"


class TestFollow:
    def test_follow_surfaces_anomalies_immediately(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_runs(path, seeds=(0,), watchdog_budget=1)
        lines: list[str] = []
        code = follow_file(
            str(path),
            idle_exit_s=0.0,
            sleep=lambda _: None,
            emit=lines.append,
        )
        assert code == 1  # anomalies appeared
        assert any(line.startswith("ANOMALY [slot-budget]") for line in lines)
        assert any(line.startswith("[run] cogcast") for line in lines)

    def test_follow_picks_up_appended_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_runs(path, seeds=(0,))

        def append_once(_delay: float) -> None:
            with TelemetrySink(path) as sink:
                run_local_broadcast(
                    _network(1), seed=1, max_slots=200, telemetry=sink
                )

        lines: list[str] = []
        code = follow_file(
            str(path),
            max_records=2,
            sleep=append_once,
            emit=lines.append,
        )
        assert code == 0
        assert sum(1 for line in lines if line.startswith("[run]")) == 2

    def test_follow_reports_invalid_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"schema": 999}\nnot json\n')
        lines: list[str] = []
        code = follow_file(
            str(path), idle_exit_s=0.0, sleep=lambda _: None, emit=lines.append
        )
        assert code == 1
        assert any("invalid record" in line for line in lines)
        assert any("not valid JSON" in line for line in lines)


class TestExplain:
    def test_explain_joins_anomaly_to_span_path(self, tmp_path):
        """The acceptance criterion: a seeded watchdog anomaly explains
        with its span path and slot context, exit code 0."""
        path = tmp_path / "t.jsonl"
        records = _write_runs(
            path, seeds=(0,), watchdog_budget=1, spans=True
        )
        report, code = explain_records(records)
        assert code == 0
        assert "anomaly [slot-budget]" in report
        assert "span path: run[0," in report
        assert "slot=" in report
        assert "execution path: backend=exact" in report
        assert "fast_path_reason='probe attached'" in report
        assert "tree: nodes=" in report

    def test_explain_filters_by_rule_and_index(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = _write_runs(path, seeds=(0, 1), watchdog_budget=1)
        report, code = explain_records(records, rule="slot-budget", index=1)
        assert code == 0
        assert report.count("anomaly [slot-budget]") == 1
        report, code = explain_records(records, rule="no-such-rule")
        assert code == 1
        assert "no anomalies" in report

    def test_span_path_of_locates_phase(self):
        spans = {"extents": {"run": [0, 40], "phase1": [0, 10],
                             "phase2": [10, 18], "phase4": [28, 40]}}
        assert span_path_of(spans, 3) == "run[0,40) > phase1[0,10)"
        assert span_path_of(spans, 30) == "run[0,40) > phase4[28,40)"
        assert span_path_of(None, 3) == "(no span summary)"
        assert span_path_of({}, 3) == "(no span extents)"


class TestStoreCli:
    def _dispatch(self, argv):
        return dispatch(build_parser().parse_args(argv))

    def test_ingest_query_explain_round_trip(self, tmp_path, capsys):
        shard = tmp_path / "shard.jsonl"
        _write_runs(shard, seeds=(0, 1), watchdog_budget=1, spans=True)
        store_dir = str(tmp_path / "store")
        assert self._dispatch(["ingest", str(shard), "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "ingested 2 runs" in out
        assert self._dispatch(["ingest", str(shard), "--store", store_dir]) == 0
        assert "2 deduplicated" in capsys.readouterr().out
        assert self._dispatch(
            ["query", store_dir, "protocol=cogcast", "--group-by", "protocol"]
        ) == 0
        table = capsys.readouterr().out
        assert "cogcast" in table and "count(slots)" in table
        assert self._dispatch(["explain", str(shard), "--index", "0"]) == 0
        report = capsys.readouterr().out
        assert "span path:" in report

    def test_query_json_is_deterministic(self, tmp_path, capsys):
        shard = tmp_path / "shard.jsonl"
        _write_runs(shard)
        store_dir = str(tmp_path / "store")
        self._dispatch(["ingest", str(shard), "--store", store_dir])
        capsys.readouterr()
        argv = ["query", store_dir, "--group-by", "n,backend", "--json"]
        assert self._dispatch(argv) == 0
        first = capsys.readouterr().out
        assert self._dispatch(argv) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)[0]["count"] == 3

    def test_bad_filter_is_a_usage_error(self, tmp_path, capsys):
        assert self._dispatch(["query", str(tmp_path), "nonsense"]) == 2
        assert "bad filter" in capsys.readouterr().err

    def test_tail_and_summary_kind_no_match_message(self, tmp_path, capsys):
        """The satellite regression: zero records of the requested kind
        prints the one-liner instead of an empty table."""
        path = tmp_path / "t.jsonl"
        _write_runs(path, seeds=(0,))
        assert self._dispatch(["tail", str(path), "--kind", "campaign"]) == 1
        out = capsys.readouterr().out
        assert out == f"no matching records of kind 'campaign' in {path}\n"
        assert self._dispatch(["summary", str(path), "--kind", "anomaly"]) == 1
        out = capsys.readouterr().out
        assert out == f"no matching records of kind 'anomaly' in {path}\n"
        assert self._dispatch(["tail", str(path), "--kind", "run"]) == 0
        assert '"kind": "run"' in capsys.readouterr().out

    def test_follow_cli_idle_exit(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        _write_runs(path, seeds=(0,))
        assert self._dispatch(
            ["follow", str(path), "--idle-exit", "0", "--poll", "0.01"]
        ) == 0
        assert "[run] cogcast" in capsys.readouterr().out


def _pkg_version() -> str:
    """The expected non-repo code-version fallback string."""
    from repro import __version__

    return f"pkg-{__version__}"
