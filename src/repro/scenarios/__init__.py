"""Scenario-matrix batch running.

Public surface:

* :func:`get_scenario` / :func:`scenario_names` / :func:`iter_scenarios`
  — the declarative registry of every experiment (paper figures and
  tables, ablations, beyond-paper configurations),
* :class:`ScenarioRunner` — expands a scenario matrix and executes it,
  one task per run point, serially or across a process pool
  (``repro bench --jobs N``); a failing point raises
  :class:`RunExecutionError` naming its ``run_id``,
* :func:`execute_run` / :func:`write_report` / :func:`validate_report`
  — single-point execution and the ``BENCH_<scenario>.json`` format,
* :func:`warm_caches` — builds the schema and database caches of a set
  of run points ahead of executing them.
"""

from repro.scenarios.registry import (
    get_scenario,
    iter_scenarios,
    register,
    scenario_names,
)
from repro.scenarios.runner import (
    BENCH_SCHEMA_VERSION,
    ENGINE_INTERNAL_METRICS,
    BenchReport,
    RunExecutionError,
    RunResult,
    ScenarioRunner,
    compare_to_golden,
    execute_run,
    golden_filename,
    physical_metrics,
    validate_report,
    warm_caches,
    write_report,
)
from repro.scenarios.spec import RunSpec, ScenarioSpec, grid

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "ENGINE_INTERNAL_METRICS",
    "BenchReport",
    "RunExecutionError",
    "RunResult",
    "RunSpec",
    "ScenarioRunner",
    "ScenarioSpec",
    "compare_to_golden",
    "execute_run",
    "get_scenario",
    "golden_filename",
    "grid",
    "iter_scenarios",
    "physical_metrics",
    "register",
    "scenario_names",
    "validate_report",
    "warm_caches",
    "write_report",
]
