"""repro.faults: deterministic fault injection, chaos scenarios, and a fuzzer.

The paper's 65-billion-determinant campaigns only succeed because the
single-vector solver carries a tiny restart state (one CI vector) and the
DDI/SHMEM layer tolerates contention.  This package lets the stack *prove*
the same discipline, in three layers:

* **mechanisms** - a seeded :class:`FaultInjector` perturbs the simulated
  X1 with rank stalls, rank death at a virtual time, dropped or delayed
  one-sided transfers, mutex-grant jitter, transient I/O errors, and
  payload corruption (NaN or bit-flip).
* **scenarios** - named generators in two registries (:data:`SCENARIOS`
  for the X1, :data:`BACKEND_SCENARIOS` for the real-process backends)
  that compose, seeded, into one declarative plan; :class:`ChaosConfig`
  names the run being broken and builds its :class:`FaultPlan`.
* **search** - :mod:`repro.faults.fuzz` draws random plans inside a
  budget grammar, runs them through the parallel-sigma and
  checkpointed-solver harnesses, checks the recovery invariants, and
  shrinks any failure to a minimal JSON reproducer.  ``python -m repro.faults
  {fuzz,replay,scenarios,scenario}`` is its command line; neither the
  fuzzer nor the CLI is imported by ``import repro``.

Every injected fault is counted under ``faults.injected.*`` and every
recovery action (DDI retry, mutex-lease revocation, task requeue,
checkpoint restart) under ``faults.recovered.*`` in a
:class:`repro.obs.MetricsRegistry`, so a chaos run tells a complete,
Perfetto-viewable story of what broke and how it healed.  The engine and
DDI layers accept an injector duck-typed, so nothing here but the fuzzer's
harnesses imports the simulator.
"""

from .injector import DEFAULT_MUTEX_LEASE, FaultInjector, FaultPlan, StallWindow
from .scenarios import BACKEND_SCENARIOS, SCENARIOS, ChaosConfig, build_backend_plan

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "StallWindow",
    "ChaosConfig",
    "SCENARIOS",
    "BACKEND_SCENARIOS",
    "build_backend_plan",
    "DEFAULT_MUTEX_LEASE",
]
