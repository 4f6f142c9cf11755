"""Named chaos scenarios and their composition into one fault plan.

A scenario is a generator ``(env, rng) -> dict`` of plan-field overrides:
``env`` is whatever describes the run being broken (a :class:`ChaosConfig`
for the fixed scenarios here, a :class:`repro.chaos.ChaosEnv` for the
seeded generators of :mod:`repro.chaos.plans`), ``rng`` a
``random.Random(seed)`` the shaped generators draw from.  Registries are
plain ``name -> generator`` dicts; :func:`register`, :func:`names` and
:func:`compose` are the one implementation every registry and every
``build_*plan`` uses (so ``["dead_rank", "flaky_network"]`` kills a rank
*on* a lossy network the same way the fuzzer merges its schedules).
Scenario parameters with physical meaning - who dies (``victim``), when
(``at`` as a fraction of the expected ``horizon`` in virtual seconds) -
live on the config so tests and the CI chaos matrix can sweep them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from ..obs.metrics import MetricsRegistry
from .injector import FaultInjector, FaultPlan, StallWindow

__all__ = [
    "ChaosConfig",
    "SCENARIOS",
    "scenario_names",
    "register_scenario",
    "register",
    "names",
    "compose",
]

Generator = Callable[[object, random.Random], dict]


def register(registry: dict, name: str, fn: Generator) -> Generator:
    """Add generator ``fn`` to ``registry`` under a new ``name``."""
    if not name or not isinstance(name, str):
        raise ValueError("scenario name must be a non-empty string")
    if name in registry:
        raise ValueError(f"scenario {name!r} is already registered")
    registry[name] = fn
    return fn


def names(registry: dict) -> list[str]:
    """The names registered in ``registry``, sorted."""
    return sorted(registry)


def _require_known(registry: dict, scenarios) -> None:
    unknown = [s for s in scenarios if s not in registry]
    if unknown:
        raise ValueError(f"unknown scenario(s) {unknown}; registered: {names(registry)}")


def compose(registry: dict, scenarios, env, seed: int) -> dict:
    """Merge the named scenarios, left to right, into one override dict:
    deaths union, stall windows concatenate, scalar knobs override.  The
    generators share one ``random.Random(seed)`` stream, so a seed fixes
    the whole schedule."""
    _require_known(registry, scenarios)
    rng = random.Random(seed)
    deaths: dict[int, float] = {}
    stalls: list[StallWindow] = []
    merged: dict = {}
    for name in scenarios:
        overrides = dict(registry[name](env, rng))
        deaths.update(overrides.pop("deaths", {}))
        stalls.extend(overrides.pop("stalls", []))
        merged.update(overrides)
    if deaths:
        merged["deaths"] = deaths
    if stalls:
        merged["stalls"] = stalls
    return merged


def _slow_rank(cfg: "ChaosConfig", _rng) -> dict:
    """The victim MSP runs ``slowdown`` x slower for the whole run."""
    return {
        "stalls": [StallWindow(cfg.victim, 0.0, math.inf, cfg.slowdown)],
    }


def _dead_rank(cfg: "ChaosConfig", _rng) -> dict:
    """Fail-stop of the victim at ``at * horizon`` virtual seconds."""
    return {"deaths": {cfg.victim: cfg.at * cfg.horizon}}


def _flaky_network(cfg: "ChaosConfig", _rng) -> dict:
    """Lossy, jittery interconnect: drops, delays, and mutex-grant jitter."""
    return {
        "drop_get": 0.08,
        "drop_put": 0.08,
        "delay_prob": 0.10,
        "delay_seconds": 20e-6,
        "mutex_jitter": 5e-6,
        "op_timeout": 2e-3,
    }


def _corrupt_payload(cfg: "ChaosConfig", _rng) -> dict:
    """Numeric-mode NaN poisoning of remote gets (detected by solver guards)."""
    return {"corrupt": cfg.corrupt_prob, "corrupt_mode": "nan"}


def _bitflip_payload(cfg: "ChaosConfig", _rng) -> dict:
    """Single-bit corruption of remote gets (the sneaky variant)."""
    return {"corrupt": cfg.corrupt_prob, "corrupt_mode": "bitflip"}


def _flaky_io(cfg: "ChaosConfig", _rng) -> dict:
    """Transient shared-filesystem errors on simulated I/O ops."""
    return {"io_error": 0.2}


SCENARIOS: dict[str, Generator] = {
    "slow_rank": _slow_rank,
    "dead_rank": _dead_rank,
    "flaky_network": _flaky_network,
    "corrupt_payload": _corrupt_payload,
    "bitflip_payload": _bitflip_payload,
    "flaky_io": _flaky_io,
}


def scenario_names() -> list[str]:
    """The registered fixed chaos scenario names, sorted."""
    return names(SCENARIOS)


def register_scenario(name: str, fn: Generator) -> None:
    """Register a fixed scenario (``(cfg, rng) -> FaultPlan field overrides``)."""
    register(SCENARIOS, name, fn)


@dataclass
class ChaosConfig:
    """Composition of named scenarios into one seeded fault plan.

    Parameters
    ----------
    scenarios:
        Names from :data:`SCENARIOS`, merged left to right (later scenarios
        override scalar fields; deaths and stalls are unioned).
    seed:
        Seed of the injector's random stream.
    victim:
        Rank targeted by ``slow_rank`` / ``dead_rank``.
    at, horizon:
        The victim dies at ``at * horizon`` virtual seconds; ``horizon``
        is typically a fault-free run's elapsed time.
    """

    scenarios: list[str] = field(default_factory=list)
    seed: int = 0
    victim: int = 1
    at: float = 0.5
    horizon: float = 1.0
    slowdown: float = 4.0
    corrupt_prob: float = 0.05

    def __post_init__(self) -> None:
        _require_known(SCENARIOS, self.scenarios)

    def build_plan(self) -> FaultPlan:
        return FaultPlan(seed=self.seed, **compose(SCENARIOS, self.scenarios, self, self.seed))

    def injector(self, registry: MetricsRegistry | None = None) -> FaultInjector:
        return FaultInjector(self.build_plan(), registry=registry)
