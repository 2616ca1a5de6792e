"""SimulationParameters and DiskParameters validation and helpers."""

import math
from dataclasses import replace

import pytest

from repro.sim.config import (
    BufferParameters,
    DiskParameters,
    HardwareParameters,
    SimulationParameters,
    WorkloadParameters,
)
from repro.sim.disk import Disk
from repro.sim.engine import Environment


class TestValidation:
    def test_defaults_valid(self):
        params = SimulationParameters()
        assert params.hardware.n_disks == 100

    @pytest.mark.parametrize(
        "field,value",
        [
            ("io_coalesce", 0),
            ("cluster_factor", 0),
            ("data_skew", -1.0),
            ("data_skew", math.nan),
            ("data_skew", math.inf),
            ("data_skew", -math.inf),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            replace(SimulationParameters(), **{field: value})

    @pytest.mark.parametrize(
        "section,field,value",
        [
            (None, "max_concurrent_subqueries", 0),
            (None, "max_concurrent_subqueries", -1),
            ("hardware", "cpu_mips", math.nan),
            ("hardware", "cpu_mips", math.inf),
            ("hardware", "cpu_mips", 0.0),
            ("network", "bandwidth_bits_per_s", 0.0),
            ("network", "bandwidth_bits_per_s", -1.0),
            ("network", "bandwidth_bits_per_s", math.nan),
            ("network", "bandwidth_bits_per_s", math.inf),
            ("network", "small_message_bytes", -1),
            ("network", "large_message_bytes", -1),
            ("cpu_costs", "read_page", -1),
            ("cpu_costs", "initiate_query", -5),
            ("cpu_costs", "per_message_byte", math.nan),
        ],
    )
    def test_invalid_per_event_knobs_rejected(self, section, field, value):
        """Knobs the event loop consumes fail at construction, naming
        the field, instead of deadlocking, dividing by zero or failing
        inside a CPU burst (or, for ``read_page``, being accepted)."""
        params = SimulationParameters()
        with pytest.raises(ValueError, match=field):
            if section is None:
                replace(params, **{field: value})
            else:
                part = replace(getattr(params, section), **{field: value})
                replace(params, **{section: part})

    def test_invalid_hardware_rejected(self):
        with pytest.raises(ValueError):
            SimulationParameters().with_hardware(n_disks=0)
        with pytest.raises(ValueError):
            SimulationParameters().with_hardware(n_nodes=0)
        with pytest.raises(ValueError):
            SimulationParameters().with_hardware(subqueries_per_node=0)

    @pytest.mark.parametrize(
        "field", ["n_disks", "n_nodes", "subqueries_per_node"]
    )
    @pytest.mark.parametrize("value", [0, -3, 2.5, True, "4"])
    def test_hardware_counts_are_positive_integers(self, field, value):
        # Caught at construction, with the knob and the value named.
        with pytest.raises(ValueError) as exc:
            HardwareParameters(**{field: value})
        assert str(exc.value) == (
            f"HardwareParameters.{field} must be an integer >= 1, "
            f"got {value!r}"
        )

    @pytest.mark.parametrize(
        "field", ["n_disks", "n_nodes", "subqueries_per_node"]
    )
    def test_hardware_counts_accept_numpy_integers(self, field):
        import numpy as np

        assert getattr(HardwareParameters(**{field: np.int64(3)}), field) == 3


class TestWorkloadParametersValidation:
    """NaN and inf knobs are rejected where they are set, naming the
    field, instead of failing (or running wrongly) inside the event
    loop: a NaN rate or think time used to surface as a non-finite
    timeout delay, an infinite think time as a ZeroDivisionError in
    ``random``, and an infinite rate put every arrival at t = 0."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("arrival_rate_qps", math.nan),
            ("arrival_rate_qps", math.inf),
            ("arrival_rate_qps", 0.0),
            ("think_time_s", math.nan),
            ("think_time_s", math.inf),
            ("think_time_s", -1.0),
        ],
    )
    def test_bad_knob_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            WorkloadParameters(**{field: value})

    def test_finite_knobs_accepted(self):
        workload = WorkloadParameters(arrival_rate_qps=1e6, think_time_s=0.0)
        assert workload.arrival_rate_qps == 1e6


class TestDiskParametersValidation:
    """Disk timings are checked at construction: the disk prices every
    request as a sum of them and skips the negative-service check."""

    @pytest.mark.parametrize(
        "field", ["avg_seek_ms", "settle_controller_ms", "per_page_ms"]
    )
    @pytest.mark.parametrize("value", [-5.0, -1e-9, math.inf, math.nan])
    def test_bad_timing_rejected(self, field, value):
        # Regression: per_page_ms=-5.0 completed a read before t=0.
        with pytest.raises(ValueError, match=field):
            DiskParameters(**{field: value})

    @pytest.mark.parametrize("field", ["capacity_pages", "pages_per_track"])
    @pytest.mark.parametrize("value", [0, -64])
    def test_bad_geometry_rejected(self, field, value):
        # Regression: pages_per_track=0 raised ZeroDivisionError deep
        # inside Disk.__init__.
        with pytest.raises(ValueError, match=field):
            DiskParameters(**{field: value})

    def test_zero_timings_and_single_page_geometry_accepted(self):
        params = DiskParameters(
            avg_seek_ms=0.0,
            settle_controller_ms=0.0,
            per_page_ms=0.0,
            capacity_pages=1,
            pages_per_track=1,
        )
        env = Environment()
        done = []
        Disk(env, params, 0).read_extents([(0, 1)], done.append)
        env.run()
        assert done == [1] and env.now == 0.0

    def test_degraded_scenario_timings_validated(self):
        # The degraded-disk scenarios scale the timings; a non-finite
        # factor fails when the run point is built, and a non-finite
        # scaled timing fails when the parameters are built.
        from repro.scenarios.spec import RunSpec

        with pytest.raises(ValueError, match="disk_degradation"):
            RunSpec(
                run_id="inf",
                query="1STORE",
                fragmentation=("time::month",),
                disk_degradation=math.inf,
            )
        disk = DiskParameters()
        with pytest.raises(ValueError, match="avg_seek_ms"):
            replace(disk, avg_seek_ms=disk.avg_seek_ms * math.inf)


class TestBufferParametersValidation:
    """Page size, prefetch granules and pool sizes are checked at
    construction, naming the field."""

    @pytest.mark.parametrize(
        "field", ["page_size", "prefetch_fact_pages", "prefetch_bitmap_pages"]
    )
    @pytest.mark.parametrize("value", [0, -8])
    def test_non_positive_size_rejected(self, field, value):
        # Regression: prefetch_bitmap_pages=0 without the adaptive
        # granule hung the work expander, and prefetch_fact_pages=0 or
        # page_size=0 raised ZeroDivisionError inside it.
        with pytest.raises(ValueError, match=field):
            BufferParameters(**{field: value})

    @pytest.mark.parametrize(
        "field", ["fact_buffer_pages", "bitmap_buffer_pages"]
    )
    def test_negative_buffer_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            BufferParameters(**{field: -1})

    def test_fixed_granule_of_zero_rejected_through_replace(self):
        buffer = SimulationParameters().buffer
        with pytest.raises(ValueError, match="prefetch_bitmap_pages"):
            replace(
                buffer, prefetch_bitmap_pages=0, adaptive_bitmap_prefetch=False
            )

    def test_smallest_sizes_accepted(self):
        buffer = BufferParameters(
            page_size=1,
            fact_buffer_pages=0,
            bitmap_buffer_pages=0,
            prefetch_fact_pages=1,
            prefetch_bitmap_pages=1,
        )
        assert buffer.fact_buffer_pages == 0


class TestWithHardware:
    def test_returns_modified_copy(self):
        base = SimulationParameters()
        varied = base.with_hardware(n_disks=20, n_nodes=5)
        assert varied.hardware.n_disks == 20
        assert varied.hardware.n_nodes == 5
        assert base.hardware.n_disks == 100  # original untouched
        assert varied.disk == base.disk  # other groups shared

    def test_frozen(self):
        params = SimulationParameters()
        with pytest.raises(Exception):
            params.io_coalesce = 4  # type: ignore[misc]


class TestBitmapGranuleRule:
    def test_adaptive_matches_table6(self):
        from repro.costmodel.iocost import IOCostParameters

        params = IOCostParameters()
        assert params.bitmap_granule(4.94) == 5
        assert params.bitmap_granule(2.47) == 3
        assert params.bitmap_granule(0.16) == 1
        assert params.bitmap_granule(100.0) == 5  # capped at the default

    def test_fixed_granule(self):
        from repro.costmodel.iocost import IOCostParameters

        params = IOCostParameters(adaptive_bitmap_prefetch=False)
        assert params.bitmap_granule(0.16) == 5
