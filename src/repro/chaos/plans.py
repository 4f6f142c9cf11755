"""Composable, seeded chaos-scenario generators.

:mod:`repro.faults.scenarios` names *single-knob* configurations (one dead
rank, one global drop rate).  At fleet scale the interesting failures are
*shaped*: several ranks failing together because they share a blade, a
latency distribution with a heavy tail rather than a mean, stalls that
land exactly on task-pool span boundaries where the dynamic load balancer
is most exposed, I/O that browns out gradually instead of flipping off.

A chaos scenario here is a **generator**: ``(env, rng) -> FaultPlan field
overrides``, drawing its shape from a seeded :class:`random.Random` so the
same seed always produces the same schedule.  Scenarios compose by
merging (:func:`repro.faults.scenarios.compose`: deaths union, stall
windows concatenate, scalar knobs override left-to-right) into one
declarative :class:`~repro.faults.FaultPlan`
that round-trips through JSON (``FaultPlan.to_dict``/``from_dict``), which
is what lets the fuzzer persist a failing schedule as a replayable
reproducer.

Three registries, kept by the same ``register``/``names``/``compose`` as
:data:`repro.faults.SCENARIOS`:

* :data:`CHAOS_SCENARIOS` - simulated-X1 fault schedules (consumed by
  ``ParallelSigma(faults=...)`` and solver checkpointing),
* :data:`SERVICE_SCENARIOS` - service-layer fault plans (consumed by
  ``FCIService(service_faults=...)``),
* :data:`BACKEND_SCENARIOS` - real-process execution-backend faults
  (killed workers, stragglers); these compose into a plain knob dict via
  :func:`build_backend_plan` because the real backends take keyword
  options, not a :class:`~repro.faults.FaultPlan`.

Unknown names raise :class:`ValueError` listing the registered names;
:func:`chaos_scenario_names` / :func:`service_scenario_names` /
:func:`backend_scenario_names` expose them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from ..faults import FaultPlan, ServiceFaultPlan, StallWindow
from ..faults.scenarios import Generator, compose, register
from ..faults.scenarios import names as registered_names

__all__ = [
    "ChaosEnv",
    "CHAOS_SCENARIOS",
    "SERVICE_SCENARIOS",
    "BACKEND_SCENARIOS",
    "register_chaos_scenario",
    "chaos_scenario_names",
    "service_scenario_names",
    "backend_scenario_names",
    "build_fault_plan",
    "build_service_plan",
    "build_backend_plan",
]


@dataclass(frozen=True)
class ChaosEnv:
    """What a generator is allowed to know about the run it will break.

    ``horizon`` is the fault-free run's elapsed *virtual* time (the
    simulated X1 is deterministic, so this is a stable, machine-independent
    number); ``n_spans`` is the task-pool span count the adversarial
    schedules align their windows to.
    """

    n_ranks: int = 4
    horizon: float = 1.0
    n_spans: int = 8


CHAOS_SCENARIOS: dict[str, Generator] = {}
SERVICE_SCENARIOS: dict[str, Generator] = {}
BACKEND_SCENARIOS: dict[str, Generator] = {}


def register_chaos_scenario(name: str, *, registry: dict | None = None):
    """Decorator registering a generator under ``name`` (X1 registry by default)."""
    return partial(register, CHAOS_SCENARIOS if registry is None else registry, name)


def chaos_scenario_names() -> list[str]:
    """The registered X1 chaos-scenario names, sorted."""
    return registered_names(CHAOS_SCENARIOS)


def service_scenario_names() -> list[str]:
    """The registered service chaos-scenario names, sorted."""
    return registered_names(SERVICE_SCENARIOS)


def backend_scenario_names() -> list[str]:
    """The registered execution-backend chaos-scenario names, sorted."""
    return registered_names(BACKEND_SCENARIOS)


# -- X1 schedule generators ---------------------------------------------------


@register_chaos_scenario("correlated_failures")
def _correlated_failures(env: ChaosEnv, rng: random.Random) -> dict:
    """Ranks sharing a failure domain die together in one small window."""
    k = 1 + rng.randrange(max(1, min(2, env.n_ranks - 1)))
    victims = rng.sample(range(env.n_ranks), min(k, env.n_ranks - 1))
    center = env.horizon * rng.uniform(0.2, 0.8)
    spread = env.horizon * 0.05
    return {
        "deaths": {v: max(0.0, center + rng.uniform(-spread, spread)) for v in victims}
    }


@register_chaos_scenario("heavy_tail_latency")
def _heavy_tail_latency(env: ChaosEnv, rng: random.Random) -> dict:
    """Remote-op latency with a Pareto tail, not a friendly mean."""
    tail = 5e-6 * rng.paretovariate(1.5)  # alpha=1.5: finite mean, wild tail
    return {
        "delay_prob": rng.uniform(0.05, 0.15),
        "delay_seconds": min(tail, 200e-6),
        "op_timeout": 2e-3,
    }


@register_chaos_scenario("adversarial_stalls")
def _adversarial_stalls(env: ChaosEnv, rng: random.Random) -> dict:
    """Stall windows aligned to task-pool span boundaries.

    The dynamic load balancer hands out Fig-3 spans; a slowdown that
    switches on exactly at a span boundary maximizes the work stranded on
    the slow rank - the adversarial placement a uniform-random window
    would only rarely find.
    """
    dt = env.horizon / env.n_spans
    windows = []
    for _ in range(1 + rng.randrange(3)):
        b = rng.randrange(env.n_spans)
        windows.append(
            StallWindow(
                rank=rng.randrange(env.n_ranks),
                t0=b * dt,
                t1=(b + 1 + rng.randrange(2)) * dt,
                slowdown=rng.uniform(2.0, 10.0),
            )
        )
    return {"stalls": windows}


@register_chaos_scenario("corruption_burst")
def _corruption_burst(env: ChaosEnv, rng: random.Random) -> dict:
    """NaN-poisoned get payloads (detectable corruption: DDI refetches)."""
    return {"corrupt": rng.uniform(0.05, 0.2), "corrupt_mode": "nan"}


@register_chaos_scenario("silent_bitflips")
def _silent_bitflips(env: ChaosEnv, rng: random.Random) -> dict:
    """Single-bit payload flips - indistinguishable from data at the comms
    layer, so the contract is seeded reproducibility, not exactness."""
    return {"corrupt": rng.uniform(0.05, 0.2), "corrupt_mode": "bitflip"}


@register_chaos_scenario("cascading_brownout")
def _cascading_brownout(env: ChaosEnv, rng: random.Random) -> dict:
    """Shared-filesystem brownout: I/O failures plus sympathetic delays."""
    return {
        "io_error": rng.uniform(0.1, 0.4),
        "delay_prob": rng.uniform(0.05, 0.1),
        "delay_seconds": 20e-6,
        "op_timeout": 2e-3,
    }


@register_chaos_scenario("flaky_interconnect")
def _flaky_interconnect(env: ChaosEnv, rng: random.Random) -> dict:
    """Lossy network: symmetric drops, grant jitter, op timeouts."""
    p = rng.uniform(0.02, 0.12)
    return {
        "drop_get": p,
        "drop_put": p,
        "mutex_jitter": rng.uniform(0.0, 5e-6),
        "op_timeout": 2e-3,
    }


@register_chaos_scenario("calm")
def _calm(env: ChaosEnv, rng: random.Random) -> dict:
    """No faults at all - the bitwise fault-free-identity lane."""
    return {}


# -- service-layer generators -------------------------------------------------


@register_chaos_scenario("worker_massacre", registry=SERVICE_SCENARIOS)
def _worker_massacre(env: ChaosEnv, rng: random.Random) -> dict:
    """Worker threads die mid-solve; reap/resume must recover the jobs."""
    return {"worker_crash": rng.uniform(0.1, 0.4)}


@register_chaos_scenario("checkpoint_brownout", registry=SERVICE_SCENARIOS)
def _checkpoint_brownout(env: ChaosEnv, rng: random.Random) -> dict:
    """Checkpoint writes fail transiently (the shared-filesystem story)."""
    return {"checkpoint_io_error": rng.uniform(0.1, 0.4)}


@register_chaos_scenario("result_rot", registry=SERVICE_SCENARIOS)
def _result_rot(env: ChaosEnv, rng: random.Random) -> dict:
    """Persisted results rot on disk; CRC must turn damage into a miss."""
    return {
        "result_corrupt": rng.uniform(0.3, 1.0),
        "result_corrupt_mode": rng.choice(["truncate", "bitflip", "header_only"]),
    }


@register_chaos_scenario("torn_journals", registry=SERVICE_SCENARIOS)
def _torn_journals(env: ChaosEnv, rng: random.Random) -> dict:
    """Journal writes tear mid-crash; restart recovery must skip, not die."""
    return {"journal_torn_write": rng.uniform(0.2, 0.6)}


@register_chaos_scenario("telemetry_blackout", registry=SERVICE_SCENARIOS)
def _telemetry_blackout(env: ChaosEnv, rng: random.Random) -> dict:
    """The telemetry stream's filesystem goes away; solves must not care."""
    return {"telemetry_io_error": rng.uniform(0.3, 1.0)}


# -- execution-backend generators ---------------------------------------------


@register_chaos_scenario("socket_worker_kill", registry=BACKEND_SCENARIOS)
def _socket_worker_kill(env: ChaosEnv, rng: random.Random) -> dict:
    """SIGKILL one real socket worker mid-span.

    ``straggle_seconds`` (the engine's per-task chaos hook) widens the
    mixed-spin span window so the kill reliably lands *inside* a span;
    the engine must convert the death into a ``RuntimeError`` naming the
    rank within its heartbeat budget — never a hang.
    """
    return {
        "backend": "sockets",
        "kill_rank": rng.randrange(max(1, env.n_ranks)),
        "kill_after_seconds": rng.uniform(0.05, 0.25),
        "straggle_seconds": rng.uniform(0.05, 0.2),
    }


@register_chaos_scenario("shm_worker_kill", registry=BACKEND_SCENARIOS)
def _shm_worker_kill(env: ChaosEnv, rng: random.Random) -> dict:
    """SIGKILL one real shm worker mid-span (same contract as sockets)."""
    return {
        "backend": "shm",
        "kill_rank": rng.randrange(max(1, env.n_ranks)),
        "kill_after_seconds": rng.uniform(0.05, 0.25),
        "straggle_seconds": rng.uniform(0.05, 0.2),
    }


# -- composition --------------------------------------------------------------


def build_fault_plan(names, env: ChaosEnv, seed: int) -> FaultPlan:
    """Compose named X1 scenarios into one seeded :class:`FaultPlan`.

    The generators draw from ``random.Random(seed)``; the plan's own
    ``seed`` (the injector's stream) is the same value, so one integer
    reproduces both the schedule and the per-op coin flips.
    """
    return FaultPlan(seed=seed, **compose(CHAOS_SCENARIOS, names, env, seed))


def build_backend_plan(names, env: ChaosEnv, seed: int) -> dict:
    """Compose named backend scenarios into one plain knob dict.

    Real-process backends are configured with keyword options (worker
    count, straggle hook), so the composed plan stays a dict the test
    harness interprets: ``kill_rank``/``kill_after_seconds`` drive the
    killer, ``straggle_seconds`` passes through to the engine.
    """
    return compose(BACKEND_SCENARIOS, names, env, seed)


def build_service_plan(names, env: ChaosEnv, seed: int) -> ServiceFaultPlan:
    """Compose named service scenarios into one seeded :class:`ServiceFaultPlan`."""
    return ServiceFaultPlan(seed=seed, **compose(SERVICE_SCENARIOS, names, env, seed))
