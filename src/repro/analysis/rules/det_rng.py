"""DET-RNG: all randomness flows through one seeded, derived stream.

The repo's reproducibility contract is that every random draw descends
from ``RunSpec.seed`` through ``workload/arrivals.py``'s ``derive_rng``
(string-salted SHA-512 derivation), so two runs of the same spec — and
the same spec run in a pool worker — replay bit-identical streams.
The bug classes this rule rejects:

* calls on the *global* ``random`` module (``random.random()``,
  ``random.shuffle(...)``) — hidden shared state, order-dependent;
* ``random.Random()`` with no arguments — OS-entropy seeded;
* ``random.Random(...)`` construction outside the sanctioned
  ``workload/arrivals.py`` — ad-hoc integer seeding collides streams
  (the exact bug ``derive_rng`` exists to prevent);
* ``numpy.random`` in any form outside the sanctioned module;
* wall-clock/entropy reads (``time.time``, ``datetime.now``,
  ``os.urandom``, ``uuid.uuid4``, the ``secrets`` module) inside the
  simulation core (``sim/``, ``scenarios/``, ``workload/``) — simulated
  time must come from the event clock, never the host.

``time.perf_counter``/``process_time`` stay legal: they measure host
cost for diagnostics and never feed fingerprints.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    FileContext,
    FileRule,
    dotted_name,
    enclosing_names,
)

#: The one module allowed to construct ``random.Random`` (it implements
#: the sanctioned derivation) and to touch ``numpy.random``.
SANCTIONED_RNG_MODULES = frozenset({"workload/arrivals.py"})

#: Path prefixes forming the deterministic simulation core, where
#: wall-clock and entropy reads are banned outright.
CLOCK_BANNED_PREFIXES = ("sim/", "scenarios/", "workload/")

#: Dotted call targets that read the host clock or OS entropy.
_ENTROPY_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
        "secrets.randbits",
    }
)

#: Global-RNG functions on the ``random`` module (module-level state).
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "seed",
        "betavariate",
        "gammavariate",
        "lognormvariate",
        "paretovariate",
        "weibullvariate",
        "triangular",
        "vonmisesvariate",
        "getrandbits",
        "randbytes",
    }
)


class DetRngRule(FileRule):
    rule_id = "DET-RNG"
    description = (
        "randomness must flow through the seeded derive_rng stream; no "
        "global random state, ad-hoc Random() seeding, numpy.random, or "
        "wall-clock/entropy reads in the simulation core"
    )

    def applies_to(self, path: str) -> bool:
        return path.endswith(".py")

    def check_file(self, context: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        scopes = enclosing_names(context.tree)
        sanctioned = context.path in SANCTIONED_RNG_MODULES
        clock_banned = context.path.startswith(CLOCK_BANNED_PREFIXES)

        def emit(node: ast.AST, message: str, detail: str) -> None:
            findings.append(
                Finding(
                    path=context.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=self.rule_id,
                    message=message,
                    detail=f"{scopes.get(node, '<module>')}: {detail}",
                )
            )

        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name.startswith("random."):
                    func = name[len("random."):]
                    if func in _GLOBAL_RNG_FUNCS:
                        emit(
                            node,
                            f"call to global-state random.{func}(); draw "
                            "from a derive_rng-derived Random instead",
                            f"global random.{func}",
                        )
                    elif func == "Random":
                        if not node.args and not node.keywords:
                            emit(
                                node,
                                "random.Random() with no seed is "
                                "OS-entropy seeded",
                                "unseeded random.Random()",
                            )
                        elif not sanctioned:
                            emit(
                                node,
                                "random.Random(...) outside the sanctioned "
                                "derive_rng path (workload/arrivals.py)",
                                "random.Random outside derive_rng",
                            )
                elif name == "random.Random" or name.endswith(".SystemRandom"):
                    pass  # handled above / below respectively
                if name.endswith("SystemRandom") or name == "SystemRandom":
                    emit(
                        node,
                        "SystemRandom draws OS entropy",
                        "SystemRandom",
                    )
                if (
                    ".random." in f".{name}."
                    and name.split(".")[0] in ("np", "numpy")
                    and not sanctioned
                ):
                    emit(
                        node,
                        f"numpy RNG call {name}(...) outside the "
                        "sanctioned module",
                        f"numpy rng {name.split('.')[-1]}",
                    )
                if clock_banned and name in _ENTROPY_CALLS:
                    emit(
                        node,
                        f"{name}() reads the host clock/entropy inside "
                        "the simulation core; use the event clock or "
                        "time.perf_counter for host diagnostics",
                        f"entropy call {name}",
                    )
            elif isinstance(node, ast.ImportFrom) and clock_banned:
                module = node.module or ""
                for alias in node.names:
                    target = f"{module}.{alias.name}" if module else alias.name
                    if target in _ENTROPY_CALLS or module == "secrets":
                        emit(
                            node,
                            f"'from {module} import {alias.name}' pulls a "
                            "host clock/entropy source into the "
                            "simulation core",
                            f"entropy import {target}",
                        )
            elif isinstance(node, ast.Import) and clock_banned:
                for alias in node.names:
                    if alias.name == "secrets":
                        emit(
                            node,
                            "'import secrets' in the simulation core",
                            "entropy import secrets",
                        )
        return findings
