"""SimulationParameters and DiskParameters validation and helpers."""

import math
from dataclasses import replace

import pytest

from repro.sim.config import DiskParameters, SimulationParameters
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
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            replace(SimulationParameters(), **{field: value})

    def test_invalid_hardware_rejected(self):
        with pytest.raises(ValueError):
            SimulationParameters().with_hardware(n_disks=0)
        with pytest.raises(ValueError):
            SimulationParameters().with_hardware(n_nodes=0)
        with pytest.raises(ValueError):
            SimulationParameters().with_hardware(subqueries_per_node=0)


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
        done = Disk(env, params, 0).read(0, 1)
        env.run()
        assert done.triggered and env.now == 0.0

    def test_degraded_scenario_timings_validated(self):
        # The degraded-disk scenarios scale the timings; a non-finite
        # factor fails when the parameters are built.
        from repro.scenarios.spec import RunSpec

        spec = RunSpec(
            run_id="inf",
            query="1STORE",
            fragmentation=("time::month",),
            disk_degradation=math.inf,
        )
        with pytest.raises(ValueError, match="avg_seek_ms"):
            spec.sim_params()


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
