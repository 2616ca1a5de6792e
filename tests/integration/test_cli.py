"""Command-line interface tests (in-process via cli.main)."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from tests.properties.strategies import STANDARD


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

    def test_invalid_schema_knob_exits_2(self, capsys):
        assert main(["info", "--channels", "0"]) == 2
        captured = capsys.readouterr()
        assert "error: channels must be >= 1" in captured.err
        assert captured.out == ""


class TestOptions:
    def test_enumerates_all(self, capsys):
        assert main(["options"]) == 0
        out = capsys.readouterr().out
        assert "167 fragmentation options" in out

    def test_constraint_filters(self, capsys):
        assert main(["options", "--min-bitmap-pages", "8"]) == 0
        out = capsys.readouterr().out
        assert "45 fragmentation options" in out

    def test_invalid_schema_knob_exits_2(self, capsys):
        assert main(["options", "--density", "2"]) == 2
        captured = capsys.readouterr()
        assert "error: density must be in (0, 1], got 2.0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                ["--min-bitmap-pages", "-1", "--max-fragments", "-5"],
                "min_bitmap_pages must be finite and non-negative, "
                "got -1.0",
            ),
            (["--min-bitmap-pages", "nan"], "min_bitmap_pages"),
            (["--max-fragments", "0"], "max_fragments must be >= 1, got 0"),
            (["--limit", "-1"], "--limit must be >= 0, got -1"),
        ],
    )
    def test_invalid_thresholds_exit_2_naming_the_knob(
        self, capsys, extra, message
    ):
        assert main(["options"] + extra) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


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

    def test_unknown_fragmentation_attribute_exits_2(self, capsys):
        assert main(["cost", "1STORE", "-f", "bogus::x"]) == 2
        captured = capsys.readouterr()
        assert "error: no dimension 'bogus'" in captured.err
        assert captured.out == ""


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

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                ["--min-fragments", "-5", "--min-bitmap-pages", "-2"],
                "min_bitmap_fragment_pages must be finite and "
                "non-negative, got -2.0",
            ),
            (["--min-fragments", "-5"], "min_fragments must be >= 1, got -5"),
            (["--max-fragments", "0"], "max_fragments must be >= 1, got 0"),
            (["--limit", "-1"], "--limit must be >= 0, got -1"),
        ],
    )
    def test_invalid_thresholds_exit_2_naming_the_knob(
        self, capsys, extra, message
    ):
        assert main(["advise", "1STORE"] + extra) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unknown_query_type_exits_2(self, capsys):
        assert main(["advise", "NOPE"]) == 2
        captured = capsys.readouterr()
        assert "error: cannot parse query type 'NOPE'" in captured.err
        assert captured.out == ""


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
            (["-d", "0"],
             "HardwareParameters.n_disks must be an integer >= 1, got 0"),
            (["-p", "-3"],
             "HardwareParameters.n_nodes must be an integer >= 1, got -3"),
            (["-t", "0"],
             "HardwareParameters.subqueries_per_node must be an integer "
             ">= 1, got 0"),
            (["--repeat", "0"], "--repeat must be >= 1, got 0"),
            (["--io-coalesce", "0"],
             "SimulationParameters.io_coalesce must be an integer >= 1, "
             "got 0"),
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

    @STANDARD
    @given(
        knob=st.sampled_from([
            ("-d", "HardwareParameters.n_disks"),
            ("-p", "HardwareParameters.n_nodes"),
            ("-t", "HardwareParameters.subqueries_per_node"),
            ("--io-coalesce", "SimulationParameters.io_coalesce"),
        ]),
        value=st.integers(max_value=0),
    )
    def test_out_of_domain_knob_exits_2_with_one_error_line(
        self, knob, value
    ):
        flag, name = knob
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([
                "simulate", "1MONTH1GROUP", "-f", "time::month",
                flag, str(value),
            ])
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == (
            f"error: {name} must be an integer >= 1, got {value}\n"
        )

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
