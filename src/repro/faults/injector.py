"""Seeded, deterministic fault injection for the simulated X1.

A :class:`FaultPlan` is a declarative description of what should go wrong;
a :class:`FaultInjector` is the stateful (but fully seeded) oracle the
engine and DDI layers consult at well-defined points:

* ``death_time(rank)`` - fail-stop at a virtual time; the engine schedules
  the death as a first-class event (ops issued before the death complete,
  nothing new starts after it),
* ``op_delay(rank, kind, base, now)`` - extra virtual seconds for an op:
  rank-stall windows slow everything on the victim, flaky-network delays
  hit remote one-sided transfers,
* ``should_drop(rank, kind)`` - a remote get/put vanishes; the engine
  charges the op's timeout and returns the :data:`DROPPED` sentinel so the
  DDI layer can retry with exponential backoff,
* ``maybe_corrupt(rank, data)`` - numeric-mode payload corruption: NaN
  poisoning or a single bit-flip in one element,
* ``mutex_delay(rank, now)`` - jitter added to mutex grants,
* ``io_fails(rank)`` - a transient shared-filesystem error.

Determinism: the engine's event order is deterministic, so one seeded
``numpy`` Generator stream yields reproducible fault sequences - the same
plan and seed always breaks the same ops at the same virtual times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from ..obs.metrics import MetricsRegistry

__all__ = ["StallWindow", "FaultPlan", "FaultLedger", "FaultInjector", "DEFAULT_MUTEX_LEASE"]

DEFAULT_MUTEX_LEASE = 250e-6
"""Default mutex lease in virtual seconds before the engine may revoke a
lock held by a dead rank (a few hundred atomic overheads)."""

_REMOTE_KINDS = ("get", "put", "putm")


@dataclass(frozen=True)
class StallWindow:
    """Rank ``rank`` runs ``slowdown`` times slower during [t0, t1)."""

    rank: int
    t0: float = 0.0
    t1: float = math.inf
    slowdown: float = 4.0


@dataclass
class FaultPlan:
    """Declarative chaos: what goes wrong, where, and how often.

    Probabilities are per-op; times are virtual seconds.  The default plan
    injects nothing (an injector built from it is a useful "hooks attached
    but idle" baseline for overhead measurements).
    """

    seed: int = 0
    deaths: dict[int, float] = field(default_factory=dict)  # rank -> time
    stalls: list[StallWindow] = field(default_factory=list)
    drop_get: float = 0.0  # P(remote get vanishes)
    drop_put: float = 0.0  # P(remote put vanishes)
    delay_prob: float = 0.0  # P(remote op delayed)
    delay_seconds: float = 0.0  # mean of the exponential delay draw
    mutex_jitter: float = 0.0  # max uniform jitter on mutex grants
    corrupt: float = 0.0  # P(numeric get payload corrupted)
    corrupt_mode: str = "nan"  # "nan" | "bitflip"
    io_error: float = 0.0  # P(simulated I/O op fails transiently)
    op_timeout: float | None = None  # virtual-time timeout per one-sided op
    mutex_lease: float = DEFAULT_MUTEX_LEASE
    max_retries: int = 8  # DDI retry budget per op
    retry_backoff: float = 5e-6  # first backoff; doubles per attempt

    def __post_init__(self) -> None:
        """Refuse a plan that would crash, or silently do nothing, mid-run
        (also the gate for reproducer files, via :meth:`from_dict`); the
        ``not x >= 0`` form rejects NaN along with negatives."""
        if self.corrupt_mode not in ("nan", "bitflip"):
            raise ValueError("corrupt_mode must be 'nan' or 'bitflip'")
        for p in (self.drop_get, self.drop_put, self.delay_prob, self.corrupt, self.io_error):
            if not 0.0 <= p <= 1.0:
                raise ValueError("fault probabilities must be in [0, 1]")
        for name in ("delay_seconds", "mutex_jitter", "mutex_lease", "retry_backoff", "max_retries"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.op_timeout is not None and not self.op_timeout > 0:
            raise ValueError(f"op_timeout must be > 0 or None, got {self.op_timeout!r}")
        for rank, at in self.deaths.items():
            if rank < 0 or not at >= 0:
                raise ValueError(f"death of rank {rank} at t={at!r}: need rank >= 0, t >= 0")
        for w in self.stalls:
            if w.rank < 0 or not w.slowdown >= 1.0 or not w.t0 <= w.t1:
                raise ValueError(
                    f"{w}: need rank >= 0, stall slowdown >= 1 and t0 <= t1"
                )

    def any_faults(self) -> bool:
        return bool(
            self.deaths
            or self.stalls
            or self.drop_get
            or self.drop_put
            or self.delay_prob
            or self.mutex_jitter
            or self.corrupt
            or self.io_error
        )

    # -- JSON round-trip (chaos reproducers persist plans with their seed) ----
    def to_dict(self) -> dict:
        """JSON-ready representation; inverse of :meth:`from_dict`.

        ``inf`` stall endpoints serialize as the string ``"inf"`` so the
        payload stays valid strict JSON (replayable by any tool, not just
        Python's permissive parser).
        """

        def _num(x: float):
            return "inf" if math.isinf(x) else float(x)

        return {
            "seed": int(self.seed),
            "deaths": {str(r): float(t) for r, t in sorted(self.deaths.items())},
            "stalls": [
                {
                    "rank": w.rank,
                    "t0": _num(w.t0),
                    "t1": _num(w.t1),
                    "slowdown": float(w.slowdown),
                }
                for w in self.stalls
            ],
            "drop_get": self.drop_get,
            "drop_put": self.drop_put,
            "delay_prob": self.delay_prob,
            "delay_seconds": self.delay_seconds,
            "mutex_jitter": self.mutex_jitter,
            "corrupt": self.corrupt,
            "corrupt_mode": self.corrupt_mode,
            "io_error": self.io_error,
            "op_timeout": self.op_timeout,
            "mutex_lease": self.mutex_lease,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (JSON-decoded)."""
        data = dict(data)
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {', '.join(sorted(unknown))}")
        data["deaths"] = {int(r): float(t) for r, t in data.get("deaths", {}).items()}
        data["stalls"] = [
            StallWindow(
                rank=int(w["rank"]),
                t0=float(w.get("t0", 0.0)),
                t1=float(w.get("t1", math.inf)),
                slowdown=float(w.get("slowdown", 4.0)),
            )
            for w in data.get("stalls", [])
        ]
        return cls(**data)


class FaultLedger:
    """The fault counters every injector keeps: each injected fault under
    ``faults.injected.<kind>`` and each recovery the stack reports (via
    :meth:`note_recovered`) under ``faults.recovered.<kind>`` in
    ``registry`` (a fresh private :class:`repro.obs.MetricsRegistry` unless
    one is shared in, e.g. a ``Telemetry.registry``).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()

    def note_injected(self, kind: str, n: float = 1.0) -> None:
        self.registry.counter(f"faults.injected.{kind}").inc(n)

    def note_recovered(self, kind: str, n: float = 1.0) -> None:
        self.registry.counter(f"faults.recovered.{kind}").inc(n)

    def counts(self) -> dict[str, float]:
        """All ``faults.*`` counter values (for assertions and reports)."""
        return {
            name: self.registry.get(name).value
            for name in self.registry
            if name.startswith("faults.")
        }


class FaultInjector(FaultLedger):
    """Stateful, seeded oracle for a :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan | None = None, registry: MetricsRegistry | None = None):
        super().__init__(registry)
        self.plan = plan if plan is not None else FaultPlan()
        self.rng = np.random.default_rng(self.plan.seed)
        self._stalls_by_rank: dict[int, list[StallWindow]] = {}
        for w in self.plan.stalls:
            self._stalls_by_rank.setdefault(w.rank, []).append(w)

    # -- retry policy the DDI layer consults ---------------------------------
    @property
    def max_retries(self) -> int:
        return self.plan.max_retries

    @property
    def retry_backoff(self) -> float:
        return self.plan.retry_backoff

    @property
    def mutex_lease(self) -> float:
        return self.plan.mutex_lease

    @property
    def op_timeout(self) -> float | None:
        return self.plan.op_timeout

    # -- engine query points -------------------------------------------------
    def death_time(self, rank: int) -> float | None:
        return self.plan.deaths.get(rank)

    def op_delay(self, rank: int, kind: str, base_seconds: float, now: float) -> float:
        """Extra virtual seconds injected into one op."""
        extra = 0.0
        for w in self._stalls_by_rank.get(rank, ()):
            if w.t0 <= now < w.t1:
                extra += base_seconds * (w.slowdown - 1.0)
                self.note_injected("stall")
                break
        plan = self.plan
        if kind in _REMOTE_KINDS and plan.delay_prob:
            if self.rng.random() < plan.delay_prob:
                extra += float(self.rng.exponential(plan.delay_seconds))
                self.note_injected("delayed_op")
        return extra

    def should_drop(self, rank: int, kind: str) -> bool:
        plan = self.plan
        p = plan.drop_get if kind == "get" else plan.drop_put
        if p and self.rng.random() < p:
            self.note_injected("dropped_get" if kind == "get" else "dropped_put")
            return True
        return False

    def mutex_delay(self, rank: int, now: float) -> float:
        j = self.plan.mutex_jitter
        if j:
            self.note_injected("mutex_jitter")
            return float(self.rng.uniform(0.0, j))
        return 0.0

    def io_fails(self, rank: int) -> bool:
        if self.plan.io_error and self.rng.random() < self.plan.io_error:
            self.note_injected("io_error")
            return True
        return False

    def maybe_corrupt(self, rank: int, data):
        """Possibly corrupt a numeric get payload (returns a new array)."""
        plan = self.plan
        if data is None or not plan.corrupt:
            return data
        if self.rng.random() >= plan.corrupt:
            return data
        arr = np.array(data, copy=True)
        if arr.size == 0:
            return data
        flat = arr.reshape(-1)
        idx = int(self.rng.integers(0, flat.size))
        if plan.corrupt_mode == "nan":
            flat[idx] = np.nan
        else:
            # flip one bit of the victim element's IEEE-754 representation
            bits = flat[idx : idx + 1].view(np.uint64)
            bits ^= np.uint64(1) << np.uint64(int(self.rng.integers(0, 63)))
        self.note_injected("corrupt_payload")
        return arr
