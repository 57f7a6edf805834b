"""Tests for the report generator and remaining CLI paths."""

from __future__ import annotations

import pytest

from repro.cli import main, write_report


class TestWriteReport:
    def test_report_contains_all_experiments(self, tmp_path):
        path = tmp_path / "report.md"
        write_report(str(path), trials=2, seed=0, fast=True)
        content = path.read_text()
        for index in range(1, 22):
            assert f"E{index:02d}" in content
        assert content.startswith("# Reproduction report")
        assert "Claim:" in content
        assert "```" in content

    def test_report_records_invocation(self, tmp_path):
        path = tmp_path / "report.md"
        write_report(str(path), trials=3, seed=9, fast=True)
        content = path.read_text()
        assert "seed=9" in content
        assert "trials=3" in content
        assert "fast=True" in content

    def test_report_cli(self, tmp_path, capsys):
        path = tmp_path / "out.md"
        code = main(
            ["report", "--fast", "--trials", "2", "--output", str(path)]
        )
        assert code == 0
        assert path.exists()
        assert str(path) in capsys.readouterr().out


class TestCliEdges:
    def test_run_all_fast(self, capsys):
        assert main(["run", "all", "--fast", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "E01" in out and "E21" in out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_lowercase_id_accepted(self, capsys):
        assert main(["run", "e16", "--fast", "--trials", "2"]) == 0
        assert "E16" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["run", "E01"], ["report"]])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "-1"], "argument --jobs: must be >= 0, got -1"),
            (["--trials", "0"], "argument --trials: must be >= 1, got 0"),
            (["--trials", "-2"], "argument --trials: must be >= 1, got -2"),
        ],
    )
    def test_bad_counts_are_usage_errors(self, command, flags, message, capsys):
        """Rejected by the parser (exit 2) before any experiment runs,
        instead of a ValueError traceback from the trial loop."""
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--fast", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
