"""repro.perf: deterministic parallel trial execution.

The contract under test is docs/performance.md's: ``pmap_trials`` is
``[fn(*args) for args in items]``, always — parallelism may only change
the wall clock.  Fallback paths (jobs=1, unpicklable functions) must
produce the same values silently, and every entry point
(``map_trials``, ``Campaign.run``, the CLI ``--jobs`` flag) must leave
results untouched.
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import Campaign
from repro.experiments.harness import map_trials, trial_seeds
from repro.perf import default_jobs, pmap_trials, resolve_jobs, set_default_jobs


def square(x):
    return x * x


def affine(a, b):
    return 3 * a + b


@pytest.fixture(autouse=True)
def restore_default_jobs():
    before = default_jobs()
    yield
    set_default_jobs(before)


class TestPmapTrials:
    def test_serial_matches_comprehension(self):
        items = [(i,) for i in range(10)]
        assert pmap_trials(square, items, jobs=1) == [i * i for i in range(10)]

    def test_parallel_matches_serial_in_order(self):
        items = [(i, i + 1) for i in range(20)]
        expected = [affine(a, b) for a, b in items]
        assert pmap_trials(affine, items, jobs=4) == expected

    def test_unpicklable_function_falls_back(self):
        offset = 5
        items = [(i,) for i in range(6)]
        got = pmap_trials(lambda x: x + offset, items, jobs=4)
        assert got == [i + offset for i in range(6)]

    def test_empty_and_singleton_work_lists(self):
        assert pmap_trials(square, [], jobs=4) == []
        assert pmap_trials(square, [(3,)], jobs=4) == [9]

    def test_jobs_none_uses_process_default(self):
        set_default_jobs(1)
        assert pmap_trials(square, [(i,) for i in range(4)]) == [0, 1, 4, 9]

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            pmap_trials(square, [(1,)], jobs=-2)


class TestJobsResolution:
    def test_resolve_explicit(self):
        assert resolve_jobs(3) == 3

    def test_resolve_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_resolve_none_reads_default(self):
        set_default_jobs(7)
        assert resolve_jobs(None) == 7

    def test_set_default_zero_means_all_cores(self):
        set_default_jobs(0)
        assert default_jobs() >= 1

    def test_set_default_negative_rejected(self):
        with pytest.raises(ValueError):
            set_default_jobs(-1)


class TestMapTrials:
    def test_matches_plain_loop(self):
        seeds = trial_seeds(0, "perf-test", 6)
        assert map_trials(square, seeds, jobs=2) == [s * s for s in seeds]


def _campaign_measure(point, seed):
    return float(point["n"] * 100 + seed % 97)


class TestCampaignParallel:
    GRID = [{"n": 2}, {"n": 3}, {"n": 5}]

    def test_serial_and_parallel_tables_identical(self):
        campaign = Campaign("perf-test", measure=_campaign_measure)
        serial = campaign.run(self.GRID, trials=4, seed=9, jobs=1)
        parallel = campaign.run(self.GRID, trials=4, seed=9, jobs=2)
        assert [r.samples for r in serial] == [r.samples for r in parallel]
        assert (
            campaign.table(serial).rows == campaign.table(parallel).rows
        )

    def test_lambda_measure_still_parallel_safe(self):
        campaign = Campaign("perf-test", measure=lambda p, s: float(s % 13))
        serial = campaign.run(self.GRID, trials=3, seed=1, jobs=1)
        parallel = campaign.run(self.GRID, trials=3, seed=1, jobs=4)
        assert [r.samples for r in serial] == [r.samples for r in parallel]


class TestCliJobs:
    def test_jobs_flag_sets_process_default(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "E01", "--fast", "--trials", "1", "--jobs", "2"]) == 0
        assert default_jobs() == 2
        capsys.readouterr()

    def test_jobs_do_not_change_tables(self, capsys):
        from repro.experiments import get

        serial = get("E01").run(trials=2, seed=11, fast=True)
        set_default_jobs(2)
        parallel = get("E01").run(trials=2, seed=11, fast=True)
        assert serial.rows == parallel.rows
        capsys.readouterr()
