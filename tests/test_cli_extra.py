"""CLI tests for the stats and parser-level experiment arguments."""

import pytest

from repro.cli import EXIT_USAGE, build_parser, main


class TestStatsCommand:
    def test_stats_arepair(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["stats", "arepair"]) == 0
        out = capsys.readouterr().out
        assert "arepair benchmark" in out
        assert "per fault class:" in out

    def test_stats_requires_known_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "unknown"])


class TestParserShape:
    def test_ablations_args(self):
        args = build_parser().parse_args(["ablations", "--samples", "3"])
        assert args.samples == 3

    def test_all_command_args(self):
        args = build_parser().parse_args(["all", "--no-cache"])
        assert args.no_cache is True


class TestRemovedExecutionFlags:
    """``--jobs`` alone decides how a matrix runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--executor", "thread"],
            ["table1", "--schedule", "longest-first"],
            ["all", "--executor", "process"],
        ],
    )
    def test_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


class TestNonPositiveCounts:
    """A count of zero or less is rejected, never used as a slice bound."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ablations", "--samples", "0"],
            ["ablations", "--samples", "-1"],
            ["trace", "t.jsonl", "--top", "0"],
            ["trace", "t.jsonl", "--top", "-1"],
        ],
    )
    def test_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err


class TestServeTuningValues:
    """Bad daemon tuning is a one-line usage error, not an internal error
    and not a daemon that rejects every job."""

    class _NeverStarted:
        def __init__(self, config):
            raise AssertionError("the daemon must not start")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lease-ttl", "0", "--cluster-dir", "{dir}"],
            ["--heartbeat", "9", "--cluster-dir", "{dir}"],
            ["--bucket-capacity", "0"],
            ["--bucket-refill", "-1"],
        ],
    )
    def test_is_a_usage_error(self, flags, tmp_path, monkeypatch, capsys):
        import repro.service.daemon as daemon

        monkeypatch.setattr(daemon, "ReproService", self._NeverStarted)
        socket = str(tmp_path / "svc.sock")
        flags = [flag.format(dir=tmp_path / "cluster") for flag in flags]
        assert main(["serve", "--socket", socket, *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert err.startswith("repro serve: error: ")
        assert err.count("\n") == 1
