"""Command-line interface tests (in-process via cli.main)."""

import pytest

from repro.cli import main


class TestInfo:
    def test_prints_schema_summary(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "1,866,240,000" in out
        assert "total bitmaps: 76" in out

    def test_scaled_schema(self, capsys):
        assert main(["info", "--channels", "30"]) == 0
        out = capsys.readouterr().out
        assert "product(28800)" in out


class TestOptions:
    def test_enumerates_all(self, capsys):
        assert main(["options"]) == 0
        out = capsys.readouterr().out
        assert "167 fragmentation options" in out

    def test_constraint_filters(self, capsys):
        assert main(["options", "--min-bitmap-pages", "8"]) == 0
        out = capsys.readouterr().out
        assert "45 fragmentation options" in out


class TestCost:
    def test_table3_style_output(self, capsys):
        code = main([
            "cost", "1STORE",
            "-f", "customer::store",
            "-f", "time::month,product::group",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "IOC1-opt" in out
        assert "IOC2-nosupp" in out

    def test_requires_fragmentation(self, capsys):
        assert main(["cost", "1STORE"]) == 2
        assert "at least one" in capsys.readouterr().err


class TestAdvise:
    def test_recommends_candidates(self, capsys):
        code = main([
            "advise", "1MONTH1GROUP", "1CODE",
            "--min-fragments", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "past thresholds" in out
        assert "time::month" in out

    def test_impossible_thresholds_fail(self, capsys):
        code = main([
            "advise", "1MONTH", "--min-bitmap-pages", "1000000000",
        ])
        assert code == 1


class TestSimulate:
    def test_runs_small_simulation(self, capsys):
        code = main([
            "simulate", "1MONTH1GROUP",
            "-f", "time::month,product::group",
            "-d", "10", "-p", "4", "-t", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg response time" in out
        assert "subqueries: 1" in out

    def test_unknown_query_type_errors(self, capsys):
        code = main([
            "simulate", "1WAREHOUSE",
            "-f", "time::month",
        ])
        assert code == 2
        assert "error: unknown attribute token 'WAREHOUSE'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["-d", "0"], "n_disks must be an integer >= 1, got 0"),
            (["-p", "-3"], "n_nodes must be an integer >= 1, got -3"),
            (["-t", "0"], "subqueries_per_node must be an integer >= 1"),
            (["--repeat", "0"], "--repeat must be >= 1, got 0"),
            (["--io-coalesce", "0"], "io_coalesce must be >= 1"),
        ],
    )
    def test_invalid_knobs_exit_2_naming_the_knob(
        self, capsys, extra, message
    ):
        code = main(
            ["simulate", "1MONTH1GROUP", "-f", "time::month"] + extra
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "fragmentation, message",
        [
            ("bogus::x", "no dimension 'bogus'"),
            ("time::bogus", "no level 'bogus'"),
        ],
    )
    def test_unknown_fragmentation_attribute_exits_2(
        self, capsys, fragmentation, message
    ):
        code = main(["simulate", "1MONTH1GROUP", "-f", fragmentation])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_workers_option_is_gone(self, capsys):
        # --jobs is the only pool-size option.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--scenario", "smoke_tiny", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_stream_shards_option_is_gone(self, capsys):
        # Runs are serial; the bench command has no stream sharding.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--scenario", "smoke_open_tiny",
                  "--stream-shards", "2"])
        assert exit_info.value.code == 2
        assert "--stream-shards" in capsys.readouterr().err
