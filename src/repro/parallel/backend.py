"""Execution backends for :class:`repro.parallel.pfci.ParallelSigma`.

The paper's parallel decomposition of sigma = H C is backend-portable: the
rank decomposition, the task pool, and the per-block kernels are fixed by
the precompiled :class:`~repro.core.plans.SigmaPlan`, while the substrate
that *executes* them is swappable.  Every substrate provides the same five
one-sided primitives the paper's DDI/SHMEM layer provides:

======  =====================================================================
verb    meaning
------  ---------------------------------------------------------------------
get     one-sided read of a block of a distributed/shared array
acc     one-sided accumulate (add) into a block of a distributed/shared array
fetch_add  atomic counter increment (the dynamic-load-balancing counter)
barrier    all-ranks rendezvous
quiet      complete all outstanding one-sided traffic (SHMEM_QUIET)
======  =====================================================================

Three backends implement the protocol:

* ``"simulated"`` — the discrete-event Cray-X1 (:mod:`repro.x1`): the verbs
  are the generator-style engine ops (``DDIArray.iget_* / iacc_*``,
  ``DynamicLoadBalancer.inext``, ``proc.barrier/quiet``) resolved in
  *virtual* time, with the machine's calibrated cost models.
* ``"shm"`` — real OS processes over POSIX shared memory
  (:mod:`repro.parallel.shm`): the verbs are plain memory reads, locked
  in-place adds, a lock-protected shared counter, a process barrier, and a
  no-op fence (CPython releases the GIL around the BLAS/NumPy work, and
  the parent's reply collection orders all writes), measured in *wall*
  time.
* ``"sockets"`` — real OS processes over TCP (:mod:`repro.parallel
  .sockets`): a coordinator serves the symmetric heap as length-prefixed
  messages; ``get`` is a framed window read, ``acc`` a one-way
  accumulate, ``fetch_add`` a served counter, ``barrier`` a thread
  barrier over all connections, ``quiet`` an ordered-channel round-trip.
  Workers are spawned on loopback or join from other hosts; heartbeats
  make a dead worker a named ``RuntimeError``, not a hang.

The two real-process backends are one :class:`ProcessBackend` around one
:class:`repro.parallel.engine.RankEngine`; they differ only in the
transport the engine is bound to.

A :class:`Backend` instance owns whatever long-lived machinery its verbs
need (the simulated heap/engine, or the worker process pool) and executes
one parallel sigma evaluation per :meth:`run_sigma` call, returning the
uniform :class:`SigmaRun` record that feeds ``ParallelReport`` and the obs
accounting layer for every backend alike.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass, field

import numpy as np

from ..x1.engine import RankStats
from ..x1.machine import X1Config

__all__ = [
    "Backend",
    "SigmaRun",
    "SimulatedBackend",
    "ProcessBackend",
    "ShmBackend",
    "SocketsBackend",
    "backend_names",
    "make_backend",
    "register_backend",
]


@dataclass
class SigmaRun:
    """Outcome of one parallel sigma evaluation, backend-independent.

    ``stats`` holds one :class:`~repro.x1.engine.RankStats` per rank; the
    simulated backend fills them with virtual-time charges, the shm backend
    with measured wall-clock phase times, bytes moved, and kernel FLOPs —
    so ``ParallelReport.merge`` and ``account_parallel_report`` work
    unchanged on both.
    """

    sigma: np.ndarray
    stats: list[RankStats] = field(default_factory=list)
    elapsed: float = 0.0
    load_imbalance: float = 0.0


class Backend(abc.ABC):
    """What an execution substrate must provide to ``ParallelSigma``."""

    name: str = "abstract"

    @property
    @abc.abstractmethod
    def n_ranks(self) -> int:
        """Number of execution ranks (MSPs or worker processes)."""

    @abc.abstractmethod
    def run_sigma(self, owner, C: np.ndarray) -> SigmaRun:
        """Evaluate sigma = H C with ``owner``'s decomposition and plan."""

    def close(self) -> None:
        """Release backend resources (processes, shared segments)."""

    def segment_stores(self) -> list:
        """Transient zero-copy store views of the substrate's live heap
        arrays, for the residency gauges (none unless a pool is up)."""
        return []

    def describe(self) -> dict:
        """JSON-friendly identity of this substrate (service/bench metadata)."""
        return {"backend": self.name, "n_ranks": self.n_ranks}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# -- registry -----------------------------------------------------------------

_REGISTRY: dict[str, type] = {}


def register_backend(name: str):
    """Class decorator: register a Backend implementation under ``name``."""

    def deco(cls):
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def backend_names() -> tuple[str, ...]:
    """Names of all registered execution backends (sorted)."""
    return tuple(sorted(_REGISTRY))


def _reject_unknown_options(name: str, options, accepted) -> None:
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise TypeError(
            f"{name} backend got unknown option(s) {', '.join(unknown)}; "
            f"accepted options: {', '.join(sorted(accepted))}"
        )


def make_backend(name: str, **options) -> Backend:
    """Construct a registered backend by name, or raise listing the registry."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        ) from None
    return cls(**options)


@register_backend("simulated")
class SimulatedBackend(Backend):
    """The discrete-event Cray-X1: virtual clocks, zero real parallelism.

    All verbs run through the engine's generator ops with the calibrated
    X1 cost models; ``run_sigma`` delegates to the owner's rank-program
    builder (including the resilient tagged-task program when faults are
    attached), which is where the simulated decomposition lives.
    """

    def __init__(self, config: X1Config | None = None, **unknown):
        _reject_unknown_options("simulated", unknown, ("config",))
        self.config = config if config is not None else X1Config()

    @property
    def n_ranks(self) -> int:
        return self.config.n_msps

    def run_sigma(self, owner, C: np.ndarray) -> SigmaRun:
        return owner._run_simulated(C)


class ProcessBackend(Backend):
    """Real OS processes: one :class:`~repro.parallel.engine.RankEngine`.

    Lazily builds the substrate's engine (a spawned worker pool, each
    worker loading the pickled plan once with BLAS threads pinned) on
    first use and keeps it alive across sigma evaluations, so eigensolver
    iterations pay the spawn cost once.  Keyword options beyond the pool
    shape are the engine's (:meth:`RankEngine.option_names`) and pass
    straight through to it; anything else is refused here, at
    construction.
    """

    def __init__(
        self,
        *,
        n_workers: int | None = None,
        blas_threads: int = 1,
        timeout: float = 300.0,
        **engine_options,
    ):
        self.n_workers = int(n_workers) if n_workers else min(4, os.cpu_count() or 1)
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.blas_threads = int(blas_threads)
        self.timeout = float(timeout)
        _reject_unknown_options(
            self.name,
            engine_options,
            ("n_workers", "blas_threads", "timeout", *self.engine_class().option_names()),
        )
        self.engine_options = dict(engine_options)
        self._engine = None

    @staticmethod
    @abc.abstractmethod
    def engine_class() -> type:
        """The :class:`RankEngine` bound to this substrate's transport."""

    @property
    def n_ranks(self) -> int:
        return self.n_workers

    def engine(self, plan, block_columns: int):
        if self._engine is None:
            self._engine = self.engine_class()(
                plan,
                n_workers=self.n_workers,
                block_columns=block_columns,
                blas_threads=self.blas_threads,
                timeout=self.timeout,
                **self.engine_options,
            )
        return self._engine

    def describe(self) -> dict:
        return {**super().describe(), "blas_threads": self.blas_threads}

    def run_sigma(self, owner, C: np.ndarray) -> SigmaRun:
        engine = self.engine(owner.plan, owner.block_columns)
        try:
            return engine.sigma(C)
        except Exception:
            # a failed run closes the engine; drop it so the next call
            # spins up a fresh pool instead of hitting the closed guard
            if engine._closed:
                self._engine = None
            raise

    def segment_stores(self) -> list:
        return self._engine.segment_stores() if self._engine is not None else []

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._engine = None


@register_backend("shm")
class ShmBackend(ProcessBackend):
    """Real OS processes over POSIX shared memory
    (:class:`repro.parallel.shm.ShmSigmaEngine`)."""

    @staticmethod
    def engine_class() -> type:
        from .shm import ShmSigmaEngine

        return ShmSigmaEngine


@register_backend("sockets")
class SocketsBackend(ProcessBackend):
    """Real OS processes behind a TCP coordinator, loopback or multi-node
    (:class:`repro.parallel.sockets.SocketSigmaEngine`): ``n_workers``
    spawned or, with ``spawn="external"``, hand-started workers.  Options:
    ``host``/``port``/``token``/``spawn``/``heartbeat_interval``/
    ``heartbeat_misses``/``straggle_seconds``.
    """

    @staticmethod
    def engine_class() -> type:
        from .sockets import SocketSigmaEngine

        return SocketSigmaEngine

    def describe(self) -> dict:
        return {
            **super().describe(),
            "spawn": self.engine_options.get("spawn", "process"),
        }
