"""Named chaos scenarios and their composition into one fault plan.

A scenario is a generator ``(cfg, rng) -> dict`` of plan-field overrides:
``cfg`` is the :class:`ChaosConfig` describing the run being broken,
``rng`` a ``random.Random(seed)`` the shaped generators draw from, so the
same seed always produces the same schedule.  Two registries:

* :data:`SCENARIOS` - simulated-X1 fault schedules, composed by
  :meth:`ChaosConfig.build_plan` into a :class:`FaultPlan`.  Six are
  fixed single-knob cases whose physical parameters (who dies, when, how
  slow) live on the config so tests and the CI matrix can sweep them; the
  rest are *shaped*: ranks sharing a blade failing together, heavy-tailed
  latency, stalls aligned to task-pool span boundaries, I/O brownouts.
* :data:`BACKEND_SCENARIOS` - real-process backend faults (killed
  workers, stragglers), composed by :func:`build_backend_plan` into a
  plain knob dict because the real backends take keyword options.

:func:`compose` merges scenarios left to right (deaths union, stall
windows concatenate, scalar knobs override), so ``["dead_rank",
"flaky_network"]`` kills a rank *on* a lossy network the same way the
fuzzer merges its schedules.  Every plan round-trips through JSON, which
is what lets the fuzzer persist a failing schedule as a reproducer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from ..obs.metrics import MetricsRegistry
from ..registry import Registry
from .injector import FaultInjector, FaultPlan, StallWindow

__all__ = [
    "ChaosConfig",
    "SCENARIOS",
    "BACKEND_SCENARIOS",
    "compose",
    "build_backend_plan",
]

Generator = Callable[["ChaosConfig", random.Random], dict]

SCENARIOS = Registry("X1 scenario", "X1 scenarios")
BACKEND_SCENARIOS = Registry("backend scenario", "backend scenarios")


def compose(registry: Registry, scenarios, cfg: "ChaosConfig", seed: int) -> dict:
    """Merge the named scenarios, left to right, into one override dict:
    deaths union, stall windows concatenate, scalar knobs override.  The
    generators share one ``random.Random(seed)`` stream, so a seed fixes
    the whole schedule."""
    registry.require(scenarios)
    rng = random.Random(seed)
    deaths: dict[int, float] = {}
    stalls: list[StallWindow] = []
    merged: dict = {}
    for name in scenarios:
        overrides = dict(registry[name](cfg, rng))
        deaths.update(overrides.pop("deaths", {}))
        stalls.extend(overrides.pop("stalls", []))
        merged.update(overrides)
    if deaths:
        merged["deaths"] = deaths
    if stalls:
        merged["stalls"] = stalls
    return merged


@dataclass
class ChaosConfig:
    """The run being broken, and the scenarios that break it.

    Parameters
    ----------
    scenarios:
        Names from :data:`SCENARIOS`, merged left to right (later scenarios
        override scalar fields; deaths and stalls are unioned).
    seed:
        Seed of the generators' draws and of the injector's random stream,
        so one integer reproduces both the schedule and the per-op coin
        flips.
    victim:
        Rank targeted by ``slow_rank`` / ``dead_rank``.
    at, horizon:
        The victim dies at ``at * horizon`` virtual seconds; ``horizon``
        is typically a fault-free run's elapsed time (the simulated X1 is
        deterministic, so this is a stable, machine-independent number).
    slowdown, corrupt_prob:
        ``slow_rank``'s factor and the corrupt-payload probability.
    n_ranks, n_spans:
        Rank count and task-pool span count the shaped schedules draw
        victims from and align their windows to.
    """

    scenarios: list[str] = field(default_factory=list)
    seed: int = 0
    victim: int = 1
    at: float = 0.5
    horizon: float = 1.0
    slowdown: float = 4.0
    corrupt_prob: float = 0.05
    n_ranks: int = 4
    n_spans: int = 8

    def __post_init__(self) -> None:
        SCENARIOS.require(self.scenarios)

    def build_plan(self) -> FaultPlan:
        return FaultPlan(seed=self.seed, **compose(SCENARIOS, self.scenarios, self, self.seed))

    def injector(self, registry: MetricsRegistry | None = None) -> FaultInjector:
        return FaultInjector(self.build_plan(), registry=registry)


def build_backend_plan(names, cfg: ChaosConfig, seed: int) -> dict:
    """Compose named backend scenarios into one plain knob dict:
    ``kill_rank``/``kill_after_seconds`` drive the test harness's killer,
    ``straggle_seconds`` passes through to the engine."""
    return compose(BACKEND_SCENARIOS, names, cfg, seed)


# -- X1: fixed scenarios --------------------------------------------------------


@SCENARIOS.register("slow_rank")
def _slow_rank(cfg: ChaosConfig, _rng) -> dict:
    """The victim MSP runs ``slowdown`` x slower for the whole run."""
    return {"stalls": [StallWindow(cfg.victim, 0.0, math.inf, cfg.slowdown)]}


@SCENARIOS.register("dead_rank")
def _dead_rank(cfg: ChaosConfig, _rng) -> dict:
    """Fail-stop of the victim at ``at * horizon`` virtual seconds."""
    return {"deaths": {cfg.victim: cfg.at * cfg.horizon}}


@SCENARIOS.register("flaky_network")
def _flaky_network(cfg: ChaosConfig, _rng) -> dict:
    """Lossy, jittery interconnect: drops, delays, and mutex-grant jitter."""
    return {
        "drop_get": 0.08,
        "drop_put": 0.08,
        "delay_prob": 0.10,
        "delay_seconds": 20e-6,
        "mutex_jitter": 5e-6,
        "op_timeout": 2e-3,
    }


@SCENARIOS.register("corrupt_payload")
def _corrupt_payload(cfg: ChaosConfig, _rng) -> dict:
    """Numeric-mode NaN poisoning of remote gets (detected by solver guards)."""
    return {"corrupt": cfg.corrupt_prob, "corrupt_mode": "nan"}


@SCENARIOS.register("bitflip_payload")
def _bitflip_payload(cfg: ChaosConfig, _rng) -> dict:
    """Single-bit corruption of remote gets (the sneaky variant)."""
    return {"corrupt": cfg.corrupt_prob, "corrupt_mode": "bitflip"}


@SCENARIOS.register("flaky_io")
def _flaky_io(cfg: ChaosConfig, _rng) -> dict:
    """Transient shared-filesystem errors on simulated I/O ops."""
    return {"io_error": 0.2}


# -- X1: seeded shapes ----------------------------------------------------------


@SCENARIOS.register("correlated_failures")
def _correlated_failures(cfg: ChaosConfig, rng: random.Random) -> dict:
    """Ranks sharing a failure domain die together in one small window."""
    k = 1 + rng.randrange(max(1, min(2, cfg.n_ranks - 1)))
    victims = rng.sample(range(cfg.n_ranks), min(k, cfg.n_ranks - 1))
    center = cfg.horizon * rng.uniform(0.2, 0.8)
    spread = cfg.horizon * 0.05
    return {
        "deaths": {v: max(0.0, center + rng.uniform(-spread, spread)) for v in victims}
    }


@SCENARIOS.register("heavy_tail_latency")
def _heavy_tail_latency(cfg: ChaosConfig, rng: random.Random) -> dict:
    """Remote-op latency with a Pareto tail, not a friendly mean."""
    tail = 5e-6 * rng.paretovariate(1.5)  # alpha=1.5: finite mean, wild tail
    return {
        "delay_prob": rng.uniform(0.05, 0.15),
        "delay_seconds": min(tail, 200e-6),
        "op_timeout": 2e-3,
    }


@SCENARIOS.register("adversarial_stalls")
def _adversarial_stalls(cfg: ChaosConfig, rng: random.Random) -> dict:
    """Stall windows aligned to task-pool span boundaries.

    The dynamic load balancer hands out Fig-3 spans; a slowdown that
    switches on exactly at a span boundary maximizes the work stranded on
    the slow rank - the adversarial placement a uniform-random window
    would only rarely find.
    """
    dt = cfg.horizon / cfg.n_spans
    windows = []
    for _ in range(1 + rng.randrange(3)):
        b = rng.randrange(cfg.n_spans)
        windows.append(
            StallWindow(
                rank=rng.randrange(cfg.n_ranks),
                t0=b * dt,
                t1=(b + 1 + rng.randrange(2)) * dt,
                slowdown=rng.uniform(2.0, 10.0),
            )
        )
    return {"stalls": windows}


@SCENARIOS.register("corruption_burst")
def _corruption_burst(cfg: ChaosConfig, rng: random.Random) -> dict:
    """NaN-poisoned get payloads (detectable corruption: DDI refetches)."""
    return {"corrupt": rng.uniform(0.05, 0.2), "corrupt_mode": "nan"}


@SCENARIOS.register("silent_bitflips")
def _silent_bitflips(cfg: ChaosConfig, rng: random.Random) -> dict:
    """Single-bit payload flips - indistinguishable from data at the comms
    layer, so the contract is seeded reproducibility, not exactness."""
    return {"corrupt": rng.uniform(0.05, 0.2), "corrupt_mode": "bitflip"}


@SCENARIOS.register("cascading_brownout")
def _cascading_brownout(cfg: ChaosConfig, rng: random.Random) -> dict:
    """Shared-filesystem brownout: I/O failures plus sympathetic delays."""
    return {
        "io_error": rng.uniform(0.1, 0.4),
        "delay_prob": rng.uniform(0.05, 0.1),
        "delay_seconds": 20e-6,
        "op_timeout": 2e-3,
    }


@SCENARIOS.register("flaky_interconnect")
def _flaky_interconnect(cfg: ChaosConfig, rng: random.Random) -> dict:
    """Lossy network: symmetric drops, grant jitter, op timeouts."""
    p = rng.uniform(0.02, 0.12)
    return {
        "drop_get": p,
        "drop_put": p,
        "mutex_jitter": rng.uniform(0.0, 5e-6),
        "op_timeout": 2e-3,
    }


@SCENARIOS.register("calm")
def _calm(cfg: ChaosConfig, rng: random.Random) -> dict:
    """No faults at all - the bitwise fault-free-identity lane."""
    return {}


# -- execution backends ---------------------------------------------------------


def _worker_kill(backend: str, cfg: ChaosConfig, rng: random.Random) -> dict:
    return {
        "backend": backend,
        "kill_rank": rng.randrange(max(1, cfg.n_ranks)),
        "kill_after_seconds": rng.uniform(0.05, 0.25),
        "straggle_seconds": rng.uniform(0.05, 0.2),
    }


@BACKEND_SCENARIOS.register("socket_worker_kill")
def _socket_worker_kill(cfg: ChaosConfig, rng: random.Random) -> dict:
    """SIGKILL one real socket worker mid-span.

    ``straggle_seconds`` (the engine's per-task chaos hook) widens the
    mixed-spin span window so the kill reliably lands *inside* a span;
    the engine must convert the death into a ``RuntimeError`` naming the
    rank within its heartbeat budget — never a hang.
    """
    return _worker_kill("sockets", cfg, rng)


@BACKEND_SCENARIOS.register("shm_worker_kill")
def _shm_worker_kill(cfg: ChaosConfig, rng: random.Random) -> dict:
    """SIGKILL one real shm worker mid-span (same contract as sockets)."""
    return _worker_kill("shm", cfg, rng)
