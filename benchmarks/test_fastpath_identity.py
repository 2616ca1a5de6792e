"""Byte-identity of the clustered/skewed fast path (tier 2).

The clustered (``ablation_fragment_clustering``, the ``fig6_1store``
``code_*`` points) and skewed (``multiuser_skew_mix``) expansions were
rewritten onto vectorised shared templates with bulk buffer probing.
These checks pin the behaviour-preserving claim end to end: each
scenario's reduced sweep must reproduce the committed golden's
``metrics_fingerprint`` byte-for-byte, serially (``--jobs 1``) and in
a process pool (``--jobs 2``), and the two reports must serialise identically
under ``--stable``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.scenarios import ScenarioRunner, compare_to_golden, golden_filename

from conftest import RESULTS_DIR

#: The scenarios whose expansion paths the fast path rewrote; each has
#: a committed reduced-sweep golden under benchmarks/results/.
SCENARIOS = [
    "ablation_fragment_clustering",
    "fig6_1store",
    "multiuser_skew_mix",
]


def _golden(name: str) -> dict:
    path = os.path.join(RESULTS_DIR, golden_filename(name, fast=True))
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.slow
@pytest.mark.parametrize("name", SCENARIOS)
def test_fast_path_matches_golden_at_jobs_1_and_2(name):
    golden = _golden(name)
    serial = ScenarioRunner(name, fast=True, jobs=1).run()
    pooled = ScenarioRunner(name, fast=True, jobs=2).run()

    assert compare_to_golden(serial, golden) == []
    assert compare_to_golden(pooled, golden) == []
    assert serial.metrics_fingerprint() == golden["metrics_fingerprint"]
    assert pooled.metrics_fingerprint() == golden["metrics_fingerprint"]
    # The whole stable report — not just the fingerprint — must be
    # byte-identical between the serial and the pool execution.
    assert serial.to_json(stable=True) == pooled.to_json(stable=True)
