"""HASH-STABLE: every config knob must declare its config-hash fate.

``RunSpec.config_hash()`` is the identity under which golden
fingerprints are filed.  Adding a dataclass field silently changes (or
silently fails to change) every hash, which is how the
``record_retention`` exclusion came to be hand-crafted after the
fact.  This rule makes the decision explicit: each
field of the registered config classes must appear in
``scenarios/hash_registry.py`` with a policy —

* ``hash-affecting`` — the field feeds ``config_dict()`` and changing
  it is *supposed* to re-key the goldens;
* ``default-excluded`` — the field is dropped from ``config_dict()``
  while at its default, so old hashes survive the knob's introduction;
* ``fixed-constant`` — the field is structural (never varies per run)
  and intentionally outside the hash.

Unlike the pure-AST rules this is an *import-time introspection* pass:
it imports the scanned tree's ``scenarios/hash_registry.py`` and
compares the registry against ``dataclasses.fields()`` ground truth in
both directions, then runs the registry's semantic ``PROBES`` (e.g.
"the default-mode ``config_dict()`` emits exactly the hash-affecting
keys").  The rule is skipped when the scanned root has no registry
file, so snippet fixtures for the AST rules stay quiet.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import sys

from repro.analysis.findings import Finding
from repro.analysis.rules import ProjectRule

REGISTRY_RELPATH = "scenarios/hash_registry.py"

VALID_POLICIES = frozenset(
    {"hash-affecting", "default-excluded", "fixed-constant"}
)


def _load_registry(path: str):
    """Import the registry module from an explicit file path."""
    module_name = "_repro_lint_hash_registry"
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - importlib
        # gives us a loader for any .py path; defensive only.
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(module_name, None)
    return module


class HashStableRule(ProjectRule):
    rule_id = "HASH-STABLE"
    description = (
        "every RunSpec/SimulationParameters/WorkloadParameters field must "
        "be registered as hash-affecting or default-excluded"
    )

    def check_project(self, root: str) -> list[Finding]:
        registry_path = os.path.join(root, *REGISTRY_RELPATH.split("/"))
        if not os.path.isfile(registry_path):
            return []
        findings: list[Finding] = []

        def emit(message: str, detail: str) -> None:
            findings.append(
                Finding(
                    path=REGISTRY_RELPATH,
                    line=1,
                    col=1,
                    rule=self.rule_id,
                    message=message,
                    detail=detail,
                )
            )

        try:
            module = _load_registry(registry_path)
        except Exception as exc:  # noqa: BLE001 - any import failure is
            # itself the finding; the lint must not crash on a bad registry.
            emit(
                f"hash registry failed to import: {exc!r}",
                "registry import failure",
            )
            return findings

        registry = getattr(module, "CONFIG_HASH_REGISTRY", None)
        classes_fn = getattr(module, "registered_classes", None)
        if not isinstance(registry, dict) or not callable(classes_fn):
            emit(
                "hash registry must define CONFIG_HASH_REGISTRY (dict) "
                "and registered_classes()",
                "registry malformed",
            )
            return findings

        try:
            classes = dict(classes_fn())
        except Exception as exc:  # noqa: BLE001 - see import note above.
            emit(
                f"registered_classes() raised: {exc!r}",
                "registered_classes failure",
            )
            return findings

        for class_name in sorted(set(registry) - set(classes)):
            emit(
                f"registry names unknown class {class_name!r}",
                f"unknown class {class_name}",
            )
        for class_name in sorted(set(classes) - set(registry)):
            emit(
                f"class {class_name!r} has no registry section",
                f"unregistered class {class_name}",
            )

        for class_name in sorted(set(registry) & set(classes)):
            cls = classes[class_name]
            if not dataclasses.is_dataclass(cls):
                emit(
                    f"{class_name} is not a dataclass; the registry only "
                    "tracks dataclass configs",
                    f"non-dataclass {class_name}",
                )
                continue
            actual = {field.name for field in dataclasses.fields(cls)}
            declared = registry[class_name]
            if not isinstance(declared, dict):
                emit(
                    f"registry section for {class_name} must be a dict of "
                    "field -> (policy, note)",
                    f"malformed section {class_name}",
                )
                continue
            for field_name in sorted(actual - set(declared)):
                emit(
                    f"{class_name}.{field_name} is not in the hash "
                    "registry; declare it hash-affecting or "
                    "default-excluded before merging",
                    f"unregistered field {class_name}.{field_name}",
                )
            for field_name in sorted(set(declared) - actual):
                emit(
                    f"registry entry {class_name}.{field_name} matches no "
                    "dataclass field (stale entry)",
                    f"stale field {class_name}.{field_name}",
                )
            for field_name in sorted(set(declared) & actual):
                entry = declared[field_name]
                policy = entry[0] if isinstance(entry, tuple) and entry else (
                    entry
                )
                if policy not in VALID_POLICIES:
                    emit(
                        f"{class_name}.{field_name} has invalid policy "
                        f"{policy!r} (want one of "
                        f"{sorted(VALID_POLICIES)})",
                        f"invalid policy {class_name}.{field_name}",
                    )

        for probe in getattr(module, "PROBES", []):
            try:
                violations = probe()
            except Exception as exc:  # noqa: BLE001 - a crashing probe is
                # reported, not raised, so one bad probe can't mask others.
                emit(
                    f"hash-registry probe {probe.__name__} raised: {exc!r}",
                    f"probe crash {probe.__name__}",
                )
                continue
            for detail, message in violations:
                emit(message, detail)
        return findings
