"""Property tests over the knob table: every configuration field declares
a domain, and every value outside it fails at construction.

The out-of-domain values are drawn from the domain data itself, so a
field added with a new domain is covered without editing this file.
"""

from __future__ import annotations

import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.scenarios.spec import RunSpec
from repro.sim.config import (
    BufferParameters,
    CpuCosts,
    DiskParameters,
    Domain,
    HardwareParameters,
    NetworkParameters,
    SimulationParameters,
    WorkloadParameters,
)
from tests.properties.strategies import STANDARD

CONFIG_CLASSES = (
    DiskParameters,
    CpuCosts,
    NetworkParameters,
    BufferParameters,
    HardwareParameters,
    WorkloadParameters,
    SimulationParameters,
    RunSpec,
)

#: Values for the fields without a default.
REQUIRED = {
    RunSpec: {
        "run_id": "r",
        "query": "1STORE",
        "fragmentation": ("time::month",),
    },
}


def out_of_domain(domain: Domain) -> st.SearchStrategy:
    """Values ``domain`` must reject."""
    wrong_type = ["x", "", b"1", [1], object()]
    if not domain.optional:
        wrong_type.append(None)
    if domain.kind == "integer":
        return st.one_of(
            st.integers(max_value=domain.lo - 1),
            st.floats(),  # even an integral float is not an integer
            st.sampled_from([domain.lo + 0.5, True, False, *wrong_type]),
        )
    if domain.kind == "real":
        return st.one_of(
            st.floats(max_value=domain.lo, exclude_max=not domain.strict),
            st.integers(
                max_value=math.floor(domain.lo) - (0 if domain.strict else 1)
            ),
            st.sampled_from([math.nan, math.inf, True, *wrong_type]),
        )
    if domain.kind == "choice":
        near_misses = [
            variant
            for choice in domain.choices
            for variant in (choice.upper(), f" {choice}", choice[:-1])
        ]
        return st.sampled_from(
            ["bogus", 1, True, *near_misses, *wrong_type]
        ).filter(lambda value: value not in domain.choices)
    return st.sampled_from([1, 2.5, True, (), *wrong_type]).filter(
        lambda value: not isinstance(value, domain.cls)
    )


@pytest.mark.parametrize("cls", CONFIG_CLASSES)
def test_every_field_declares_a_domain(cls):
    undeclared = [
        spec.name
        for spec in fields(cls)
        if not isinstance(spec.metadata.get("domain"), Domain)
    ]
    assert undeclared == []


@pytest.mark.parametrize("cls", CONFIG_CLASSES)
@STANDARD
@given(data=st.data())
def test_out_of_domain_values_rejected_naming_the_field(cls, data):
    for spec in fields(cls):
        domain = spec.metadata["domain"]
        value = data.draw(out_of_domain(domain), label=spec.name)
        with pytest.raises(ValueError) as exc:
            cls(**{**REQUIRED.get(cls, {}), spec.name: value})
        assert str(exc.value) == (
            f"{cls.__name__}.{spec.name} must be {domain}, got {value!r}"
        )

