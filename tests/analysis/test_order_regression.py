"""Satellite: the DET-ORDER specimens stay sorted-or-proven.

ISSUE 10 named the ``projected: set[int]`` in ``mdhf/routing.py`` as a
DET-ORDER motivating specimen.  It turns out to be a true negative —
every consumer sorts or is order-insensitive — so instead of code
changes these tests pin that status: the linter must keep reporting
zero DET-ORDER findings in that file, routing's fragment axes must come
out sorted, and the pool fingerprint must stay byte-identical to the
serial one.
"""

from __future__ import annotations

from repro.analysis.engine import collect_findings, default_root
from repro.mdhf.query import Predicate, StarQuery
from repro.mdhf.routing import plan_query
from repro.scenarios import RunSpec, ScenarioRunner, ScenarioSpec

F_MG = ("time::month", "product::group")


def q(*preds):
    return StarQuery([Predicate.parse(t, *vs) for t, *vs in preds])


class TestLintStatus:
    def test_specimen_files_have_no_order_findings(self):
        findings, _ = collect_findings(default_root())
        order = [
            f for f in findings
            if f.rule == "DET-ORDER"
            and f.path == "mdhf/routing.py"
        ]
        assert order == []


class TestRoutingAxesSorted:
    def test_projected_axis_values_are_sorted(self, apb1, apb1_catalog,
                                              f_month_group):
        # A quarter predicate projects to several months through the
        # hierarchy; the set-built axis must surface as a sorted tuple.
        plan = plan_query(
            q(("time::quarter", 2), ("product::group", 1)),
            f_month_group, apb1, apb1_catalog,
        )
        for values in plan.axis_values:
            assert list(values) == sorted(set(values))

    def test_multi_value_predicate_axis_sorted(self, apb1, apb1_catalog,
                                               f_month_group):
        # Feed values in descending order: the projected set sees
        # insertions in reverse, yet the axis still comes out sorted.
        plan = plan_query(
            q(("time::month", 23, 11, 5, 0)), f_month_group, apb1,
            apb1_catalog,
        )
        assert any(
            list(values) == [0, 5, 11, 23] for values in plan.axis_values
        )


class TestPoolFingerprintPinned:
    def test_serial_and_pool_fingerprints_identical(self):
        scenario = ScenarioSpec(
            name="_order_regression",
            title="DET-ORDER regression scenario",
            runs=tuple(
                RunSpec(
                    run_id=f"t{t}",
                    query="1STORE",
                    fragmentation=F_MG,
                    schema="tiny",
                    n_disks=6,
                    n_nodes=2,
                    t=t,
                )
                for t in (1, 2, 3)
            ),
        )
        serial = ScenarioRunner(scenario, jobs=1).run()
        pooled = ScenarioRunner(scenario, jobs=2).run()
        assert serial.metrics_fingerprint() == pooled.metrics_fingerprint()
