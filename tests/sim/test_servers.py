"""FIFO servers, disks, CPUs, network, buffer manager."""

import math
import re

import pytest

from repro.sim.buffer import BufferManager, BufferPool
from repro.sim.config import (
    BufferParameters,
    CpuCosts,
    DiskParameters,
    NetworkParameters,
)
from repro.sim.cpu import ProcessingNode
from repro.sim.disk import Disk
from repro.sim.engine import Environment
from repro.sim.network import Network, receive_instructions, send_instructions
from repro.sim.resources import FifoServer


def _ignore(_value):
    """A resume callable for requests whose completion nobody awaits."""


class TestFifoServer:
    def test_serves_in_order(self):
        env = Environment()
        server = FifoServer(env)
        completions = []
        server.submit(2.0, lambda _v: completions.append(("a", env.now)))
        server.submit(1.0, lambda _v: completions.append(("b", env.now)))
        env.run()
        assert completions == [("a", 2.0), ("b", 3.0)]

    def test_completion_wakes_resume_with_value(self):
        env = Environment()
        server = FifoServer(env)
        woken = []
        server.submit(1.0, woken.append, "payload")
        env.run()
        assert woken == ["payload"]

    def test_busy_time_accumulates(self):
        env = Environment()
        server = FifoServer(env)
        server.submit(2.0, _ignore)
        server.submit(3.0, _ignore)
        env.run()
        assert server.busy_time == pytest.approx(5.0)
        assert server.request_count == 2

    def test_queue_time_tracked(self):
        env = Environment()
        server = FifoServer(env)
        server.submit(2.0, _ignore)
        server.submit(1.0, _ignore)  # waits 2.0 in queue
        env.run()
        assert server.queue_time == pytest.approx(2.0)

    def test_utilization(self):
        env = Environment()
        server = FifoServer(env)
        server.submit(2.0, _ignore)
        env.run()
        env.timeout(2.0).wait(lambda _v: None)
        env.run()
        assert server.utilization(4.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_submit_rejects_non_finite_or_negative_service(self, bad):
        server = FifoServer(Environment(), name="srv")
        with pytest.raises(
            ValueError, match=f"'srv'.*got {re.escape(repr(bad))}"
        ):
            server.submit(bad, _ignore)
        assert server.queue_length == 0

    @pytest.mark.parametrize("service", [0.0, 5e-324, 1e300])
    def test_submit_accepts_zero_and_finite_service(self, service):
        # The lower bound is inclusive and the upper one excludes only
        # inf: zero, the smallest subnormal and a huge finite time run.
        env = Environment()
        server = FifoServer(env, name="srv")
        done = []
        server.submit(service, done.append)
        env.run()
        assert done == [None]
        assert env.now == service
        assert server.busy_time == service

    @pytest.mark.parametrize("service", [0.0, 5e-324, 1e300])
    def test_complete_accepts_zero_and_finite_service(self, service):
        env = Environment()
        server = FifoServer(env, name="srv")
        server.submit(1.0, _ignore)
        done = []
        server.submit(service, done.append)
        env.run()
        assert done == [None]
        assert server.request_count == 2
        assert env.now == 1.0 + service

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_busy_submit_rejects_non_finite_or_negative_service(self, bad):
        # A request behind a busy server is refused at submit, in the
        # caller's frame, not when it would start service in env.run().
        env = Environment()
        server = FifoServer(env, name="srv")
        server.submit(1.0, _ignore)
        with pytest.raises(
            ValueError, match=f"'srv'.*got {re.escape(repr(bad))}"
        ):
            server.submit(bad, _ignore)
        assert server.queue_length == 1
        env.run()
        assert server.request_count == 1 and env.now == 1.0


class TestDisk:
    @pytest.fixture
    def disk(self):
        env = Environment()
        return env, Disk(env, DiskParameters(), disk_id=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_busy_submit_rejects_non_finite_or_negative(self, disk, bad):
        # Disk inherits FifoServer.submit: a bad duration behind a busy
        # disk is refused at submit, before env.run().
        env, d = disk
        d.submit(1.0, _ignore)
        with pytest.raises(
            ValueError, match=f"'disk0'.*got {re.escape(repr(bad))}"
        ):
            d.submit(bad, _ignore)
        assert d.queue_length == 1
        env.run()
        assert d.request_count == 1 and env.now == 1.0

    @pytest.mark.parametrize("duration", [1.0, 1])
    def test_queued_submit_served_in_order(self, disk, duration):
        # A generic 4-tuple queued behind a read is served after it
        # with its submitted duration, a float or an int.
        env, d = disk
        woken = []
        d.read_extents([(0, 8)], woken.append)
        d.submit(duration, woken.append, "submitted")
        env.run()
        assert woken == [8, "submitted"]
        assert env.now == pytest.approx(0.003 + 8 * 0.001 + 1.0)
        assert d.request_count == 2
        assert d.busy_time == pytest.approx(0.003 + 8 * 0.001 + 1.0)

    def test_single_read_timing(self, disk):
        env, d = disk
        d.read_extents([(0, 8)], _ignore)
        env.run()
        # Head starts at track 0, page 0 is track 0: no seek.
        assert env.now == pytest.approx(0.003 + 8 * 0.001)

    def test_seek_grows_with_distance(self, disk):
        env, d = disk
        near = d.seek_seconds(0, 10)
        far = d.seek_seconds(0, 1000)
        assert 0 < near < far
        assert d.seek_seconds(5, 5) == 0.0

    def test_average_seek_calibration(self):
        env = Environment()
        d = Disk(env, DiskParameters(), disk_id=0)
        total = d._total_tracks
        # Mean over uniformly random pairs approximates avg_seek_ms.
        import random

        rng = random.Random(0)
        seeks = [
            d.seek_seconds(rng.uniform(0, total), rng.uniform(0, total))
            for _ in range(20_000)
        ]
        assert sum(seeks) / len(seeks) == pytest.approx(0.010, rel=0.05)

    def test_sequential_reads_cheaper_than_scattered(self):
        params = DiskParameters()
        env = Environment()
        sequential = Disk(env, params, 0)
        scattered = Disk(env, params, 1)
        sequential.read_extents([(i * 8, 8) for i in range(50)], _ignore)
        scattered.read_extents(
            [(i * 10_000, 8) for i in range(50)], _ignore
        )
        env.run()
        assert sequential.busy_time < scattered.busy_time
        assert sequential.seek_time < scattered.seek_time

    def test_pages_counted(self, disk):
        env, d = disk
        d.read_extents([(0, 8), (100, 4)], _ignore)
        env.run()
        assert d.pages_read == 12

    def test_empty_extents_rejected(self, disk):
        _env, d = disk
        with pytest.raises(ValueError):
            d.read_extents([], _ignore)

    def test_zero_page_extent_rejected(self, disk):
        _env, d = disk
        with pytest.raises(ValueError):
            d.read_extents([(0, 0)], _ignore)

    def test_negative_start_page_rejected(self, disk):
        # Regression: a negative start moved the head off the platter.
        env, d = disk
        with pytest.raises(
            ValueError, match=r"extent \(-8, 8\).*capacity_pages=1048576"
        ):
            d.read_extents([(0, 8), (-8, 8)], _ignore)
        env.run()
        assert d.pages_read == 0 and d.request_count == 0

    def test_extent_beyond_capacity_rejected(self, disk):
        # Regression: an extent past the last page priced a seek longer
        # than a full stroke.
        env, d = disk
        capacity = d.params.capacity_pages
        with pytest.raises(
            ValueError,
            match=rf"extent \({capacity - 4}, 8\).*capacity_pages={capacity}",
        ):
            d.read_extents([(capacity - 4, 8)], _ignore)
        with pytest.raises(ValueError, match="capacity_pages"):
            d.read_extents([(capacity, 1)], _ignore)
        env.run()
        assert d.seek_time == 0.0 and d.request_count == 0

    def test_extents_up_to_the_last_page_accepted(self, disk):
        env, d = disk
        capacity = d.params.capacity_pages
        d.read_extents([(0, 1), (capacity - 8, 8)], _ignore)
        env.run()
        assert d.pages_read == 9
        assert d._head_track == d._total_tracks
        # A full stroke is the longest seek the curve prices.
        assert d.seek_time <= d.seek_seconds(0.0, d._total_tracks)

    def test_trusted_path_does_not_validate(self, disk):
        # read_validated stays unchecked: its callers build the extents.
        env, d = disk
        d.read_validated([(-8, 8)], 8, 8, _ignore)
        env.run()
        assert d.pages_read == 8


class TestProcessingNode:
    def test_compute_duration(self):
        env = Environment()
        node = ProcessingNode(env, 0, cpu_mips=50.0)
        node.compute(50_000, _ignore)  # the initiate-query cost
        env.run()
        assert env.now == pytest.approx(0.001)
        assert node.instructions == 50_000

    def test_requests_serialise(self):
        env = Environment()
        node = ProcessingNode(env, 0, cpu_mips=1.0)
        node.compute(1e6, _ignore)
        node.compute(1e6, _ignore)
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_invalid_mips(self):
        env = Environment()
        with pytest.raises(ValueError):
            ProcessingNode(env, 0, cpu_mips=0)

    @pytest.mark.parametrize("mips", [math.nan, math.inf, -1.0, True])
    def test_mips_outside_its_domain_rejected_naming_it(self, mips):
        # Regression: NaN passed the ``cpu_mips <= 0`` guard.
        with pytest.raises(ValueError) as exc:
            ProcessingNode(Environment(), 0, cpu_mips=mips)
        assert str(exc.value) == (
            "ProcessingNode.cpu_mips must be a finite real > 0, "
            f"got {mips!r}"
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_compute_rejects_non_finite_or_negative_instructions(self, bad):
        node = ProcessingNode(Environment(), 3, cpu_mips=50.0)
        with pytest.raises(
            ValueError, match=f"'node3'.*got {re.escape(repr(bad))}"
        ):
            node.compute(bad, _ignore)
        assert node.instructions == 0

    @pytest.mark.parametrize("instructions", [0, 0.0, 2**53])
    def test_compute_accepts_zero_and_finite_instructions(
        self, instructions
    ):
        env = Environment()
        node = ProcessingNode(env, 0, cpu_mips=50.0)
        done = []
        node.compute(instructions, done.append)
        env.run()
        assert done == [None]
        assert node.instructions == int(instructions)
        assert env.now == instructions / 50e6


class TestNetwork:
    def test_transfer_delay_proportional(self):
        env = Environment()
        net = Network(env, NetworkParameters())
        # 128 B at 100 Mbit/s = 10.24 microseconds.
        assert net.transfer_seconds(128) == pytest.approx(128 * 8 / 100e6)
        assert net.transfer_seconds(4096) == pytest.approx(4096 * 8 / 100e6)

    def test_transfer_event(self):
        env = Environment()
        net = Network(env, NetworkParameters())
        woken = []
        net.transfer(4096, net.transfer_seconds(4096), woken.append)
        env.run()
        assert woken == [None]
        assert env.now == pytest.approx(4096 * 8 / 100e6)
        assert net.messages_sent == 1
        assert net.bytes_sent == 4096

    def test_message_cpu_costs(self):
        costs = CpuCosts()
        assert send_instructions(costs, 128) == 1_128
        assert receive_instructions(costs, 4096) == 5_096


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(capacity_pages=10)
        assert not pool.lookup(0, 100)
        pool.insert(0, 100, 5)
        assert pool.lookup(0, 100)
        assert pool.hits == 1 and pool.misses == 1

    def test_lru_eviction(self):
        pool = BufferPool(capacity_pages=10)
        pool.insert(0, 0, 5)
        pool.insert(0, 5, 5)
        pool.lookup(0, 0)  # refresh extent 0: extent 5 becomes LRU
        pool.insert(0, 10, 5)
        assert pool.lookup(0, 0)
        assert not pool.lookup(0, 5)

    def test_capacity_respected(self):
        pool = BufferPool(capacity_pages=10)
        for i in range(5):
            pool.insert(0, i * 4, 4)
        assert pool.used_pages <= 10

    def test_oversized_extent_bypasses(self):
        pool = BufferPool(capacity_pages=4)
        pool.insert(0, 0, 8)
        assert pool.used_pages == 0
        assert not pool.lookup(0, 0)

    def test_reinsert_updates_size(self):
        pool = BufferPool(capacity_pages=10)
        pool.insert(0, 0, 4)
        pool.insert(0, 0, 6)
        assert pool.used_pages == 6

    def test_manager_pools_separate(self):
        manager = BufferManager(BufferParameters())
        manager.fact.insert(0, 0, 8)
        assert not manager.bitmap.lookup(0, 0)
        assert manager.pool(is_bitmap=True) is manager.bitmap
        assert manager.pool(is_bitmap=False) is manager.fact
