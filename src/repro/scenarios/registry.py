"""The scenario registry: every experiment this repo can run, by name.

Covers each figure and table of the paper (fig3–fig6, table1–table6),
the ablation studies beyond the paper's figures, and new beyond-paper
configurations (skewed multi-user mixes, degraded-disk runs, a tiny CI
smoke scenario).  The ``benchmarks/`` suite, the ``repro bench`` CLI and
the examples all resolve their configurations here, so adding a scenario
in this module makes it runnable everywhere at once.
"""

from __future__ import annotations

from dataclasses import replace

from repro.scenarios.spec import (
    KIND_ANALYTIC,
    KIND_STATIC,
    MODE_ANALYTIC,
    MODE_MULTI_USER,
    MODE_OPEN_SYSTEM,
    RunSpec,
    ScenarioSpec,
    grid,
)

_REGISTRY: dict[str, ScenarioSpec] = {}

#: The paper's reference fragmentation F_MonthGroup.
F_MONTH_GROUP = ("time::month", "product::group")
F_MONTH_CLASS = ("time::month", "product::class")
F_MONTH_CODE = ("time::month", "product::code")
F_STORE = ("customer::store",)

#: Figure 6's fragmentation strategies by label.
FIG6_FRAGMENTATIONS = {
    "group": F_MONTH_GROUP,
    "class": F_MONTH_CLASS,
    "code": F_MONTH_CODE,
}

#: Table 5: node counts per disk count (p = d/20 ... d/2); t = d/p.
TABLE5_CONFIGS = {
    20: [1, 2, 4, 5, 10],
    60: [3, 6, 12, 15, 30],
    100: [5, 10, 20, 25, 50],
}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


def iter_scenarios() -> list[ScenarioSpec]:
    return [_REGISTRY[name] for name in scenario_names()]


# ---------------------------------------------------------------------
# Figures 3-6 (simulation experiments)
# ---------------------------------------------------------------------

def _table5_runs(query: str, t_rule) -> list[RunSpec]:
    runs = []
    for n_disks, node_counts in TABLE5_CONFIGS.items():
        for n_nodes in node_counts:
            runs.append(
                RunSpec(
                    run_id=f"d{n_disks}_p{n_nodes}",
                    query=query,
                    fragmentation=F_MONTH_GROUP,
                    n_disks=n_disks,
                    n_nodes=n_nodes,
                    t=t_rule(n_disks, n_nodes),
                )
            )
    return runs


register(
    ScenarioSpec(
        name="fig3_speedup_1store",
        title="Figure 3: 1STORE speed-up over the disk count",
        figure="fig3",
        description=(
            "Disk-bound 1STORE (IOC2-nosupp) on the Table 5 hardware "
            "matrix; response depends on d only and scales superlinearly."
        ),
        runs=tuple(
            _table5_runs("1STORE", lambda d, p: max(1, d // p))
        ),
        fast_run_ids=("d20_p1", "d20_p5", "d100_p5", "d100_p25"),
    )
)

register(
    ScenarioSpec(
        name="fig4_speedup_1month",
        title="Figure 4: 1MONTH speed-up over the processor count",
        figure="fig4",
        description=(
            "CPU-bound 1MONTH (IOC1) on the Table 5 matrix at t=4, plus "
            "the paper's t=5 point at d=100/p=50."
        ),
        runs=tuple(
            _table5_runs("1MONTH", lambda d, p: 4)
            + [
                RunSpec(
                    run_id="d100_p50_t5",
                    query="1MONTH",
                    fragmentation=F_MONTH_GROUP,
                    n_disks=100,
                    n_nodes=50,
                    t=5,
                )
            ]
        ),
        fast_run_ids=("d20_p1", "d20_p10", "d100_p10", "d100_p50"),
    )
)

register(
    ScenarioSpec(
        name="fig5_parallel_bitmap_io",
        title="Figure 5: parallel subqueries and parallel bitmap I/O",
        figure="fig5",
        description=(
            "1STORE at d=100/p=20 over t=1..13, with and without "
            "parallel I/O on the staggered bitmap fragments."
        ),
        runs=tuple(
            grid(
                RunSpec(
                    run_id="",
                    query="1STORE",
                    fragmentation=F_MONTH_GROUP,
                    n_disks=100,
                    n_nodes=20,
                ),
                {"t": [1, 2, 3, 5, 7, 9, 11, 13],
                 "parallel_bitmap_io": [True, False]},
                "t{t}_{parallel_bitmap_io}",
            )
        ),
        fast_run_ids=(
            "t1_True", "t1_False", "t3_True", "t3_False",
            "t5_True", "t5_False",
        ),
    )
)


def _fig6_runs(query: str, degrees_by_label: dict[str, list[int]],
               t_rule) -> list[RunSpec]:
    runs = []
    for label, attrs in FIG6_FRAGMENTATIONS.items():
        for degree in degrees_by_label[label]:
            runs.append(
                RunSpec(
                    run_id=f"{label}_deg{degree}",
                    query=query,
                    fragmentation=attrs,
                    label=label,
                    n_disks=100,
                    n_nodes=20,
                    t=t_rule(degree),
                    max_concurrent=degree if t_rule(degree) == 1 else None,
                )
            )
    return runs


_CQ_DEGREES = [1, 2, 3, 4, 5]
register(
    ScenarioSpec(
        name="fig6_1code1quarter",
        title="Figure 6 (right): 1CODE1QUARTER vs fragmentation strategy",
        figure="fig6",
        description=(
            "The 3-fragment query benefits from finer fragmentation; "
            "optimum at only 3 concurrent subqueries."
        ),
        runs=tuple(
            _fig6_runs(
                "1CODE1QUARTER",
                {label: _CQ_DEGREES for label in FIG6_FRAGMENTATIONS},
                lambda degree: 1,
            )
        ),
    )
)

#: The paper's full sweep plus a degree-100 point for group/class so the
#: reduced sweep can compare all three strategies at equal parallelism.
_STORE_DEGREES = {"group": [20, 40, 80, 100, 120, 160],
                  "class": [20, 40, 80, 100, 120, 160],
                  "code": [20, 100, 160]}
register(
    ScenarioSpec(
        name="fig6_1store",
        title="Figure 6 (left): 1STORE vs fragmentation strategy",
        figure="fig6",
        description=(
            "Inverse ordering: F_MonthCode is catastrophic for 1STORE "
            "(sub-page bitmap fragments force millions of page reads)."
        ),
        runs=tuple(
            _fig6_runs(
                "1STORE",
                _STORE_DEGREES,
                lambda degree: max(1, degree // 20),
            )
        ),
        fast_run_ids=(
            "group_deg20", "group_deg100", "class_deg20", "class_deg100",
            "code_deg100",
        ),
    )
)


# ---------------------------------------------------------------------
# Tables 1-6 (analytic / static reproductions)
# ---------------------------------------------------------------------

register(
    ScenarioSpec(
        name="table1_encoding",
        title="Table 1: hierarchical encoding of the PRODUCT dimension",
        figure="table1",
        kind=KIND_STATIC,
        description="Bit widths of the encoded bitmap join index.",
    )
)

register(
    ScenarioSpec(
        name="table2_options",
        title="Table 2: fragmentation options under size constraints",
        figure="table2",
        kind=KIND_STATIC,
        description="Option counts by dimensionality and bitmap-size floor.",
    )
)

register(
    ScenarioSpec(
        name="table3_iocost",
        title="Table 3: I/O characteristics of query 1STORE",
        figure="table3",
        kind=KIND_ANALYTIC,
        description="Analytic cost of F_opt vs F_nosupp for 1STORE.",
        runs=(
            RunSpec(
                run_id="f_opt",
                query="1STORE",
                fragmentation=F_STORE,
                mode=MODE_ANALYTIC,
                label="F_opt",
            ),
            RunSpec(
                run_id="f_nosupp",
                query="1STORE",
                fragmentation=F_MONTH_GROUP,
                mode=MODE_ANALYTIC,
                label="F_nosupp",
            ),
        ),
    )
)

register(
    ScenarioSpec(
        name="table4_defaults",
        title="Table 4: simulation parameter settings",
        figure="table4",
        kind=KIND_STATIC,
        description="The simulator's defaults are exactly the paper's.",
    )
)

register(
    ScenarioSpec(
        name="table6_fragmentations",
        title="Table 6: fragmentation parameters for experiment 3",
        figure="table6",
        kind=KIND_STATIC,
        description="Fragment counts, bitmap fragment sizes, granules.",
    )
)


# ---------------------------------------------------------------------
# Ablations (design remedies the paper proposes but does not evaluate)
# ---------------------------------------------------------------------

register(
    ScenarioSpec(
        name="ablation_fragment_clustering",
        title="Ablation: fragment clustering rescues F_MonthCode",
        description="Section 6.3's remedy vs 1STORE on F_MonthCode.",
        runs=tuple(
            grid(
                RunSpec(
                    run_id="",
                    query="1STORE",
                    fragmentation=F_MONTH_CODE,
                    n_disks=100,
                    n_nodes=20,
                    t=5,
                ),
                {"cluster_factor": [1, 8, 32]},
                "cluster{cluster_factor}",
            )
        ),
        fast_run_ids=("cluster8", "cluster32"),
    )
)

register(
    ScenarioSpec(
        name="ablation_gap_allocation",
        title="Ablation: gap allocation vs the 1CODE gcd pathology",
        description="Section 4.6's shifted scheme restores parallelism.",
        runs=tuple(
            grid(
                RunSpec(
                    run_id="",
                    query="1CODE",
                    fragmentation=F_MONTH_GROUP,
                    n_disks=100,
                    n_nodes=20,
                    t=2,
                ),
                {"allocation_scheme": ["round_robin", "gap"]},
                "{allocation_scheme}",
            )
        ),
    )
)

register(
    ScenarioSpec(
        name="ablation_staggered_allocation",
        title="Ablation: staggered vs co-located bitmap fragments",
        description="Without staggering, parallel bitmap I/O cannot win.",
        runs=tuple(
            grid(
                RunSpec(
                    run_id="",
                    query="1STORE",
                    fragmentation=F_MONTH_GROUP,
                    n_disks=100,
                    n_nodes=20,
                    t=1,
                ),
                {"staggered_allocation": [True, False]},
                "staggered_{staggered_allocation}",
            )
        ),
    )
)

register(
    ScenarioSpec(
        name="ablation_data_skew",
        title="Ablation: zipf data skew vs load balance",
        description="Section 7 future work: skewed fragment populations.",
        runs=tuple(
            grid(
                RunSpec(
                    run_id="",
                    query="1MONTH",
                    fragmentation=F_MONTH_GROUP,
                    n_disks=100,
                    n_nodes=20,
                    t=4,
                ),
                {"data_skew": [0.0, 0.5, 1.0]},
                "skew{data_skew}",
            )
        ),
        fast_run_ids=("skew0.0", "skew1.0"),
    )
)

register(
    ScenarioSpec(
        name="ablation_multi_user",
        title="Ablation: multi-user mode throughput vs response time",
        description="Section 7 future work: concurrent closed streams.",
        runs=tuple(
            grid(
                RunSpec(
                    run_id="",
                    query="1MONTH1GROUP",
                    fragmentation=F_MONTH_GROUP,
                    mode=MODE_MULTI_USER,
                    n_disks=100,
                    n_nodes=20,
                    t=4,
                    queries_per_stream=3,
                ),
                {"streams": [1, 2, 4]},
                "streams{streams}",
            )
        ),
        fast_run_ids=("streams1", "streams4"),
    )
)


# ---------------------------------------------------------------------
# Beyond-paper scenarios
# ---------------------------------------------------------------------

register(
    ScenarioSpec(
        name="multiuser_skew_mix",
        title="Beyond paper: skewed multi-user query mix",
        description=(
            "Concurrent 1MONTH1GROUP streams on a zipf-skewed warehouse: "
            "skew erodes the load balance exactly when contention is "
            "highest, so the throughput gain of extra streams shrinks."
        ),
        runs=tuple(
            grid(
                RunSpec(
                    run_id="",
                    query="1MONTH1GROUP",
                    fragmentation=F_MONTH_GROUP,
                    mode=MODE_MULTI_USER,
                    n_disks=100,
                    n_nodes=20,
                    t=4,
                    queries_per_stream=2,
                ),
                {"streams": [2, 4], "data_skew": [0.0, 0.75]},
                "streams{streams}_skew{data_skew}",
            )
        ),
        fast_run_ids=("streams2_skew0.0", "streams2_skew0.75"),
    )
)

register(
    ScenarioSpec(
        name="degraded_disks",
        title="Beyond paper: degraded disk subsystem",
        description=(
            "Disk-bound 1STORE with every disk timing inflated 1x/1.5x/2x "
            "(rebuilds, failing spindles): response time of the "
            "disk-bound query scales with the degradation factor."
        ),
        runs=tuple(
            grid(
                RunSpec(
                    run_id="",
                    query="1STORE",
                    fragmentation=F_MONTH_GROUP,
                    n_disks=100,
                    n_nodes=20,
                    t=5,
                ),
                {"disk_degradation": [1.0, 1.5, 2.0]},
                "degrade{disk_degradation}",
            )
        ),
        fast_run_ids=("degrade1.0", "degrade2.0"),
    )
)

# ---------------------------------------------------------------------
# Open-system workloads (Section 7 future work: arrival processes,
# think times, admission control)
# ---------------------------------------------------------------------

#: Shared base for the apb1 open-system studies: 24 single-query
#: sessions of the CPU-bound 1MONTH1GROUP on the reference
#: fragmentation; measured single-query service time ~1.8 s, system
#: capacity ~1.4 queries/s, so the knee sits between 1 and 2 qps.
_OPEN_BASE = RunSpec(
    run_id="",
    query="1MONTH1GROUP",
    fragmentation=F_MONTH_GROUP,
    mode=MODE_OPEN_SYSTEM,
    n_disks=100,
    n_nodes=20,
    t=4,
    streams=24,
    queries_per_stream=1,
)

register(
    ScenarioSpec(
        name="open_load_sweep",
        title="Open system: throughput and delay vs offered load",
        description=(
            "Poisson arrivals swept across the saturation knee at fixed "
            "fragmentation: completed throughput tracks the offered "
            "load until ~1.4 qps, then response times blow up (the "
            "knee-of-the-curve view closed streams cannot produce)."
        ),
        runs=tuple(
            grid(
                _OPEN_BASE,
                {"arrival_rate_qps": [0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0]},
                "rate{arrival_rate_qps}",
            )
        ),
        fast_run_ids=("rate0.5", "rate2.0", "rate8.0"),
    )
)

register(
    ScenarioSpec(
        name="open_mpl_ablation",
        title="Open system: admission-control MPL cap under overload",
        description=(
            "Offered load just past the knee (2 qps): a tight MPL cap "
            "starves throughput, no cap trades queueing delay for "
            "in-system contention; p95 total delay is U-shaped with the "
            "optimum near MPL 4."
        ),
        runs=tuple(
            grid(
                replace(_OPEN_BASE, arrival_rate_qps=2.0),
                {"max_mpl": [1, 2, 4, 8, None]},
                "mpl{max_mpl}",
            )
        ),
        fast_run_ids=("mpl1", "mpl4", "mplNone"),
    )
)

register(
    ScenarioSpec(
        name="open_burstiness",
        title="Open system: arrival burstiness at equal offered load",
        description=(
            "Fixed-rate vs Poisson vs batch-Poisson arrivals, all at "
            "1 qps: the offered load is identical but short-term "
            "congestion is not, so tail delays order fixed < poisson "
            "< bursty."
        ),
        runs=(
            replace(_OPEN_BASE, run_id="fixed", arrival_process="fixed",
                    arrival_rate_qps=1.0),
            replace(_OPEN_BASE, run_id="poisson", arrival_process="poisson",
                    arrival_rate_qps=1.0),
            replace(_OPEN_BASE, run_id="bursty4", arrival_process="bursty",
                    arrival_rate_qps=1.0, burst_size=4),
            replace(_OPEN_BASE, run_id="bursty12", arrival_process="bursty",
                    arrival_rate_qps=1.0, burst_size=12),
        ),
        fast_run_ids=("fixed", "bursty12"),
    )
)

register(
    ScenarioSpec(
        name="open_think_time",
        title="Open system: closed/open hybrid with think times",
        description=(
            "8 sessions of 3 queries each behind an MPL-4 admission "
            "controller: longer think times thin out the effective "
            "load, trading throughput for per-query response time."
        ),
        runs=tuple(
            grid(
                replace(_OPEN_BASE, streams=8, queries_per_stream=3,
                        arrival_rate_qps=1.0, max_mpl=4),
                {"think_time_s": [0.0, 2.0, 8.0]},
                "think{think_time_s}",
            )
        ),
        fast_run_ids=("think0.0", "think8.0"),
    )
)

register(
    ScenarioSpec(
        name="smoke_open_tiny",
        title="CI smoke: tiny open-system matrix (arrivals + admission)",
        description=(
            "Two sub-second open-system runs on the tiny schema — an "
            "uncapped Poisson stream and an MPL-capped bursty stream — "
            "exercising arrivals, admission queueing and think times "
            "end to end for the perf-smoke golden check."
        ),
        runs=(
            RunSpec(
                run_id="poisson_uncapped",
                query="1MONTH",
                fragmentation=F_MONTH_GROUP,
                mode=MODE_OPEN_SYSTEM,
                schema="tiny",
                n_disks=10,
                n_nodes=2,
                t=2,
                streams=6,
                queries_per_stream=2,
                arrival_process="poisson",
                arrival_rate_qps=20.0,
                think_time_s=0.05,
            ),
            RunSpec(
                run_id="bursty_mpl2",
                query="1MONTH",
                fragmentation=F_MONTH_GROUP,
                mode=MODE_OPEN_SYSTEM,
                schema="tiny",
                n_disks=10,
                n_nodes=2,
                t=2,
                streams=8,
                queries_per_stream=1,
                arrival_process="bursty",
                arrival_rate_qps=40.0,
                burst_size=4,
                max_mpl=2,
            ),
        ),
        fast_run_ids=("poisson_uncapped",),
    )
)


# ---------------------------------------------------------------------
# Warehouse scale: bounded-memory open-system runs far past the session
# counts the closed sweeps can reach
# ---------------------------------------------------------------------

#: Shared base for the warehouse-scale family: the tiny schema spread
#: over a wide 128-disk / 32-node array so per-query service time is
#: sub-millisecond and the session count — not the hardware — is the
#: scaling axis.  Admission stays MPL-capped so the in-flight set is
#: bounded, and retention defaults to "bounded" so aggregate memory is
#: O(1) in the query count (the point of the family).
_WAREHOUSE_BASE = RunSpec(
    run_id="",
    query="1MONTH",
    fragmentation=F_MONTH_GROUP,
    mode=MODE_OPEN_SYSTEM,
    schema="tiny",
    n_disks=128,
    n_nodes=32,
    t=2,
    streams=10_000,
    queries_per_stream=1,
    arrival_process="poisson",
    arrival_rate_qps=50.0,
    max_mpl=32,
    record_retention="bounded",
)

register(
    ScenarioSpec(
        name="warehouse_smoke",
        title="CI smoke: warehouse-scale retention modes on a tiny burst",
        description=(
            "Two sub-second 256-session points on the warehouse "
            "hardware, one per retention mode: bounded retention drops "
            "every per-query record yet reports byte-identical "
            "aggregates, so the perf-smoke golden pins the streaming "
            "accumulators against the full-retention path."
        ),
        runs=(
            replace(_WAREHOUSE_BASE, run_id="full256", streams=256,
                    record_retention="full"),
            replace(_WAREHOUSE_BASE, run_id="bounded256", streams=256),
        ),
        fast_run_ids=("bounded256",),
    )
)

register(
    ScenarioSpec(
        name="warehouse_scale",
        title="Warehouse scale: bounded-memory sessions sweep (10^4-10^5)",
        description=(
            "Poisson session counts swept to 10^5 on 128 disks with "
            "bounded retention: peak RSS stays flat across a 10x query "
            "count while percentile sketches and exact streaming sums "
            "keep the reported aggregates deterministic.  The 10^4 pair "
            "(full vs bounded) is the fast subset and doubles as the "
            "retention ablation; the 10^5 point is tier-2 only."
        ),
        runs=(
            replace(_WAREHOUSE_BASE, run_id="sessions10000_full",
                    record_retention="full"),
            replace(_WAREHOUSE_BASE, run_id="sessions10000"),
            replace(_WAREHOUSE_BASE, run_id="sessions100000",
                    streams=100_000, arrival_rate_qps=100.0),
        ),
        fast_run_ids=("sessions10000_full", "sessions10000"),
    )
)


register(
    ScenarioSpec(
        name="smoke_tiny",
        title="CI smoke: one tiny end-to-end simulation matrix",
        description=(
            "Two sub-second runs (tiny schema single-user, paper schema "
            "low-parallelism) plus one analytic point; exercises every "
            "runner mode without the full sweeps."
        ),
        runs=(
            RunSpec(
                run_id="tiny_1store",
                query="1STORE",
                fragmentation=F_MONTH_GROUP,
                schema="tiny",
                n_disks=10,
                n_nodes=2,
                t=2,
            ),
            RunSpec(
                run_id="apb1_1code1quarter",
                query="1CODE1QUARTER",
                fragmentation=F_MONTH_GROUP,
                n_disks=100,
                n_nodes=20,
                t=1,
                max_concurrent=3,
            ),
            RunSpec(
                run_id="analytic_1store",
                query="1STORE",
                fragmentation=F_STORE,
                mode=MODE_ANALYTIC,
            ),
        ),
        fast_run_ids=("tiny_1store",),
    )
)
