"""Benchmarks for the content-addressed run store: ingest and query.

The run store must stay cheap enough to fold whole campaign shards
into after every sweep, so these benchmarks time
:meth:`repro.obs.store.RunStore.ingest` and
:func:`repro.obs.query.run_query` at 10^4 synthetic run records —
distinct (config hash, seed) pairs across four protocol/size configs.
Speed comparisons between commits of the store's ingest and query use
the repository benchmark (``perfbench``, workload ``trials-observed``).
"""

from __future__ import annotations

import json

from repro.obs.provenance import CODE_VERSION, provenance_block
from repro.obs.query import parse_filters, run_query
from repro.obs.store import RunStore
from repro.obs.telemetry import TELEMETRY_SCHEMA_VERSION

RECORDS = 10_000
CONFIGS = (
    {"protocol": "cogcast", "n": 100, "c": 20, "k": 4, "backend": "exact"},
    {"protocol": "cogcast", "n": 1000, "c": 40, "k": 8, "backend": "exact"},
    {"protocol": "cogcomp", "n": 100, "c": 20, "k": 4, "backend": "exact"},
    {"protocol": "cogcomp", "n": 1000, "c": 40, "k": 8, "backend": "vector"},
)


def _synthetic_record(config: dict, seed: int) -> dict:
    """A schema-valid run record stamped like the real runners stamp."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "kind": "run",
        "protocol": config["protocol"],
        "seed": seed,
        "n": config["n"],
        "c": config["c"],
        "k": config["k"],
        "universe": config["c"],
        "slots": 40 + (seed % 17),
        "outcome": "completed",
        "fast_path": False,
        "backend": config["backend"],
        "provenance": provenance_block(
            dict(config, kind="run"), code_version=CODE_VERSION
        ),
    }


def _write_shard(path) -> None:
    """10^4 synthetic runs: 4 configs x 2500 seeds, one JSONL shard."""
    per_config = RECORDS // len(CONFIGS)
    with open(path, "w", encoding="utf-8") as handle:
        for config in CONFIGS:
            for seed in range(per_config):
                handle.write(json.dumps(_synthetic_record(config, seed)))
                handle.write("\n")


def test_store_ingest_10k(benchmark, tmp_path):
    shard = tmp_path / "shard.jsonl"
    _write_shard(shard)
    stores = iter(range(1_000_000))

    def ingest():
        # A fresh root per round so every ingest is a cold first write.
        store = RunStore(tmp_path / f"store{next(stores)}")
        return store.ingest([shard])

    report = benchmark.pedantic(ingest, rounds=3, iterations=1)
    assert report.ingested == RECORDS
    assert report.deduplicated == 0


def test_store_query_10k(benchmark, tmp_path):
    shard = tmp_path / "shard.jsonl"
    _write_shard(shard)
    store = RunStore(tmp_path / "store")
    store.ingest([shard])
    filters = parse_filters(["protocol=cogcast", "n>=1000"])

    def query():
        return run_query(
            store, filters=filters, group_by=["backend"], stat="slots"
        )

    rows = benchmark.pedantic(query, rounds=3, iterations=1)
    assert rows[0]["count"] == RECORDS // len(CONFIGS)
