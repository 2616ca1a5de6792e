"""Config-hash fate registry, enforced by the HASH-STABLE lint rule.

Every field of the configuration dataclasses must be declared here with
a policy deciding its relationship to ``RunSpec.config_hash()``:

* ``"hash-affecting"`` — the field is always emitted by
  ``config_dict()``; changing its value re-keys the goldens, changing
  its *default* re-keys every committed fingerprint (don't).
* ``"default-excluded"`` — the field is dropped from ``config_dict()``
  while it holds its default, so the knob's introduction left every
  pre-existing ``config_hash`` untouched (the PR 8–9 pattern for
  ``record_retention`` / ``stream_shards`` / the open-system knobs).
* ``"fixed-constant"`` — structural Table-4 constants that never vary
  per run point and are intentionally outside the hash.

``repro lint`` (rule ``HASH-STABLE``) imports this module and checks
the registry against ``dataclasses.fields()`` in both directions, then
runs :data:`PROBES` — semantic assertions that the declared policies
match what ``config_dict()`` actually does.  Adding a dataclass field
without deciding its hash fate is therefore a lint failure, not a
runtime surprise.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.scenarios.spec import MODE_OPEN_SYSTEM, MODE_SIM, RunSpec
from repro.sim.config import SimulationParameters, WorkloadParameters

HASH_AFFECTING = "hash-affecting"
DEFAULT_EXCLUDED = "default-excluded"
FIXED_CONSTANT = "fixed-constant"

#: class name -> field name -> (policy, one-line rationale).
CONFIG_HASH_REGISTRY: dict[str, dict[str, tuple[str, str]]] = {
    "RunSpec": {
        "run_id": (HASH_AFFECTING, "names the run point"),
        "query": (HASH_AFFECTING, "paper query template"),
        "fragmentation": (HASH_AFFECTING, "MDHF dimension set"),
        "mode": (HASH_AFFECTING, "sim/multi_user/open_system/analytic"),
        "label": (HASH_AFFECTING, "grouping tag (figure series)"),
        "schema": (HASH_AFFECTING, "apb1 vs tiny scale"),
        "channels": (HASH_AFFECTING, "schema scale knob"),
        "density": (HASH_AFFECTING, "schema scale knob"),
        "n_disks": (HASH_AFFECTING, "hardware axis d"),
        "n_nodes": (HASH_AFFECTING, "hardware axis p"),
        "t": (HASH_AFFECTING, "concurrent subqueries per node"),
        "parallel_bitmap_io": (HASH_AFFECTING, "Section 6.2 ablation"),
        "staggered_allocation": (HASH_AFFECTING, "Figure 2 ablation"),
        "allocation_scheme": (HASH_AFFECTING, "round_robin vs gap"),
        "cluster_factor": (HASH_AFFECTING, "Section 6.3 clustering"),
        "data_skew": (HASH_AFFECTING, "Zipf skew exponent"),
        "max_concurrent": (HASH_AFFECTING, "Figure 6 parallelism cap"),
        "io_coalesce": (HASH_AFFECTING, "event-count control"),
        "disk_degradation": (HASH_AFFECTING, "beyond-paper disk slowdown"),
        "streams": (HASH_AFFECTING, "multi-user session count"),
        "queries_per_stream": (HASH_AFFECTING, "session length"),
        "stream_seed_stride": (HASH_AFFECTING, "per-stream seed spacing"),
        "seed": (HASH_AFFECTING, "root of the derive_rng tree"),
        # Open-system knobs entered the schema after the first goldens
        # were committed (PR 7); non-open modes reject non-default
        # values, so dropping them keeps every old hash valid.
        "arrival_process": (DEFAULT_EXCLUDED, "open-system only (PR 7)"),
        "arrival_rate_qps": (DEFAULT_EXCLUDED, "open-system only (PR 7)"),
        "burst_size": (DEFAULT_EXCLUDED, "open-system only (PR 7)"),
        "max_mpl": (DEFAULT_EXCLUDED, "open-system only (PR 7)"),
        "think_time_s": (DEFAULT_EXCLUDED, "open-system only (PR 7)"),
        "record_retention": (
            DEFAULT_EXCLUDED,
            "scheduling knob, physics-neutral (PR 8)",
        ),
        "stream_shards": (
            DEFAULT_EXCLUDED,
            "serial path bit-identical; >1 hashes partition_mode (PR 9)",
        ),
    },
    # SimulationParameters is never hashed directly: its identity flows
    # through the RunSpec fields that drive sim_params().  Policies
    # describe that flow — "hash-affecting" means a hash-affecting
    # RunSpec field sets it, "fixed-constant" means Table-4 constants.
    "SimulationParameters": {
        "hardware": (HASH_AFFECTING, "driven by n_disks/n_nodes/t"),
        "disk": (HASH_AFFECTING, "Table 4 timing x disk_degradation"),
        "cpu_costs": (FIXED_CONSTANT, "Table 4 instruction counts"),
        "network": (FIXED_CONSTANT, "Table 4 network model"),
        "buffer": (FIXED_CONSTANT, "Table 4 buffer manager"),
        "workload": (DEFAULT_EXCLUDED, "driven by open-system knobs"),
        "parallel_bitmap_io": (HASH_AFFECTING, "mirrors RunSpec"),
        "staggered_allocation": (HASH_AFFECTING, "mirrors RunSpec"),
        "allocation_scheme": (HASH_AFFECTING, "mirrors RunSpec"),
        "cluster_factor": (HASH_AFFECTING, "mirrors RunSpec"),
        "data_skew": (HASH_AFFECTING, "mirrors RunSpec"),
        "io_coalesce": (HASH_AFFECTING, "mirrors RunSpec"),
        "max_concurrent_subqueries": (
            HASH_AFFECTING,
            "mirrors RunSpec.max_concurrent",
        ),
        "record_retention": (DEFAULT_EXCLUDED, "mirrors RunSpec (PR 8)"),
        "stream_shards": (DEFAULT_EXCLUDED, "mirrors RunSpec (PR 9)"),
        "seed": (HASH_AFFECTING, "mirrors RunSpec"),
    },
    "WorkloadParameters": {
        "arrival_process": (DEFAULT_EXCLUDED, "mirrored by RunSpec"),
        "arrival_rate_qps": (DEFAULT_EXCLUDED, "mirrored by RunSpec"),
        "burst_size": (DEFAULT_EXCLUDED, "mirrored by RunSpec"),
        "max_mpl": (DEFAULT_EXCLUDED, "mirrored by RunSpec"),
        "think_time_s": (DEFAULT_EXCLUDED, "mirrored by RunSpec"),
    },
}


def registered_classes() -> dict[str, type]:
    """The live classes the registry sections describe."""
    return {
        "RunSpec": RunSpec,
        "SimulationParameters": SimulationParameters,
        "WorkloadParameters": WorkloadParameters,
    }


def _run_spec_policy(policy: str) -> set[str]:
    return {
        name
        for name, (declared, _note) in CONFIG_HASH_REGISTRY["RunSpec"].items()
        if declared == policy
    }


def _probe_spec(**overrides) -> RunSpec:
    return RunSpec(
        run_id="hash-registry-probe",
        query="Q2.1",
        fragmentation=("time::month",),
        **overrides,
    )


def probe_default_config_dict() -> list[tuple[str, str]]:
    """Default-mode ``config_dict()`` emits exactly the declared keys.

    Every hash-affecting field must appear; every default-excluded field
    must be absent at its default; no undeclared key may appear.
    """
    violations: list[tuple[str, str]] = []
    spec = _probe_spec()
    assert spec.mode == MODE_SIM
    emitted = set(spec.config_dict())
    affecting = _run_spec_policy(HASH_AFFECTING)
    excluded = _run_spec_policy(DEFAULT_EXCLUDED)
    for name in sorted(affecting - emitted):
        violations.append(
            (
                f"probe: hash-affecting field {name} not emitted",
                f"RunSpec.{name} is declared hash-affecting but default "
                "config_dict() does not emit it",
            )
        )
    for name in sorted(emitted & excluded):
        violations.append(
            (
                f"probe: default-excluded field {name} emitted at default",
                f"RunSpec.{name} is declared default-excluded but default "
                "config_dict() emits it (old hashes would change)",
            )
        )
    for name in sorted(emitted - affecting - excluded):
        violations.append(
            (
                f"probe: unregistered emitted key {name}",
                f"config_dict() emits {name!r} which no registry policy "
                "accounts for",
            )
        )
    return violations


def probe_open_system_mirror() -> list[tuple[str, str]]:
    """RunSpec's open-system knobs mirror WorkloadParameters exactly."""
    violations: list[tuple[str, str]] = []
    workload_defaults = asdict(WorkloadParameters())
    spec = _probe_spec()
    for name, default in sorted(workload_defaults.items()):
        if not hasattr(spec, name):
            violations.append(
                (
                    f"probe: WorkloadParameters.{name} missing on RunSpec",
                    f"WorkloadParameters.{name} has no mirroring RunSpec "
                    "field (the open-system exclusion breaks)",
                )
            )
        elif getattr(spec, name) != default:
            violations.append(
                (
                    f"probe: default drift on {name}",
                    f"RunSpec.{name} default {getattr(spec, name)!r} != "
                    f"WorkloadParameters default {default!r}; non-open "
                    "modes would reject the (new) default",
                )
            )
    return violations


def probe_nondefault_knobs_hash() -> list[tuple[str, str]]:
    """Non-default excluded knobs must re-enter the hashed config."""
    violations: list[tuple[str, str]] = []
    sharded = _probe_spec(mode=MODE_OPEN_SYSTEM, stream_shards=2)
    config = sharded.config_dict()
    if "stream_shards" not in config:
        violations.append(
            (
                "probe: non-default stream_shards not hashed",
                "stream_shards=2 must appear in config_dict() — a sharded "
                "run may not reuse a serial run's hash",
            )
        )
    if config.get("partition_mode") != "independent":
        violations.append(
            (
                "probe: partition_mode marker missing",
                "stream_shards>1 must hash partition_mode='independent' "
                "(declared physics decomposition)",
            )
        )
    bounded = _probe_spec(mode="multi_user", record_retention="bounded")
    if "record_retention" not in bounded.config_dict():
        violations.append(
            (
                "probe: non-default record_retention not hashed",
                "record_retention='bounded' must appear in config_dict()",
            )
        )
    return violations


#: Semantic probes HASH-STABLE runs after the field-coverage check.
#: Each returns ``[(detail, message), ...]`` violation tuples.
PROBES = [
    probe_default_config_dict,
    probe_open_system_mirror,
    probe_nondefault_knobs_hash,
]
