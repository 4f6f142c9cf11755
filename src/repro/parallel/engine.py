"""The one rank engine behind every real-process execution backend.

:class:`RankEngine` executes the paper's parallel sigma decomposition
(:mod:`repro.parallel.rankwork`, which also states why whole canonical
column blocks make it bitwise-reproducible) on a persistent pool of OS
processes.  Everything that does not depend on the substrate lives here,
once:

* **lifecycle**: workers are spawned once (BLAS threads pinned through
  the environment before spawn, each unpickling the
  :class:`~repro.core.plans.SigmaPlan` a single time from the spawn
  args) or join by hand and receive the plan over their control endpoint,
  then serve ``("sigma", seq)`` requests until :meth:`RankEngine.close`,
  so eigensolver iterations pay the spawn cost once,
* **failure detection**: one collect loop sleeps until a control endpoint
  is readable or a pending rank's process exits, and checks every pending
  rank each time it wakes: EOF on the endpoint, a dead process, or — on
  a transport whose workers heartbeat — ``silence_budget`` seconds
  without a message raise a ``RuntimeError`` naming the rank (and its
  exit code when spawned) instead of hanging; the whole call is bounded
  by ``timeout``.  A failed call closes the engine; the backend drops it
  and the next call spawns a fresh pool,
* **determinism**: each phase writes disjoint owned windows of its own
  heap array (``one``/``aa``/``bb``/``mix``), and the parent reduces the
  four left-to-right in the serial kernel's accumulation order - for
  C = eps * C^T the three the ranks wrote (no ``bb``), then adds eps times
  the transpose, the paper's "vector symm" step - so sigma is
  bitwise-identical to ``DgemmKernel.apply`` at the same
  ``block_columns`` for any worker count on any transport,
* **observability**: every call returns a
  :class:`~repro.parallel.backend.SigmaRun` whose per-rank
  :class:`~repro.x1.engine.RankStats` carry measured wall-clock phase
  times, bytes moved and kernel FLOPs — the schema the simulated engine
  emits, so ``ParallelReport`` and the obs accounting work unchanged.

A *transport* supplies only what differs between substrates:

============================  =============================================
``name``                      ``"shm"`` / ``"sockets"``, for diagnostics
``lost``                      exception types a vanished peer raises
``spawns``                    False when the workers are started by hand
``heartbeat_interval``        seconds between worker heartbeats, and
``silence_budget``            seconds of control-endpoint silence that
                              mean a dead rank; both None without
                              heartbeats
``open_heap(arrays,           the parent-side symmetric heap (``get``/
n_ranks, timeout)``           ``zero``/``reset_counter``/``barrier``/
                              ``spec``), kept as ``transport.heap``
``link(rank)``                the picklable worker-side handle
                              :func:`~repro.parallel.rankwork.worker_main`
                              joins through
``connect(deadline)``         ``{rank: control endpoint}`` once every rank
                              has joined (``send``/``fileno``/``close``)
``recv(endpoint, timeout)``   one control message
``close()``                   release endpoints and heap
============================  =============================================

:class:`repro.parallel.shm.ShmSigmaEngine` and
:class:`repro.parallel.sockets.SocketSigmaEngine` are this engine bound
to their transport.
"""

from __future__ import annotations

import inspect
import multiprocessing as mp
import os
import threading
import time
from multiprocessing.connection import wait

import numpy as np

from ..core.kernels import add_transpose, as_ci_matrix, transpose_parity
from ..core.plans import SigmaPlan
from .backend import SigmaRun
from .rankwork import build_sigma_decomposition, heap_arrays, worker_main

__all__ = ["RankEngine"]

# every BLAS/OpenMP runtime numpy might load reads one of these at startup
_BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RankEngine:
    """Persistent pool of sigma worker ranks over one transport."""

    transport: type  # bound by the per-substrate subclass

    @classmethod
    def option_names(cls) -> tuple[str, ...]:
        """Keyword options beyond the pool shape: the per-task chaos hook
        plus whatever the transport's constructor takes."""
        return ("straggle_seconds", *inspect.signature(cls.transport).parameters)

    def __init__(
        self,
        plan: SigmaPlan,
        *,
        n_workers: int,
        block_columns: int,
        blas_threads: int = 1,
        timeout: float = 300.0,
        straggle_seconds: float = 0.0,
        **transport_options,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        # from here on the instance attribute shadows the class one
        self.transport = self.transport(**transport_options)
        self.plan = plan
        self.n_workers = int(n_workers)
        self.block_columns = int(block_columns)
        self.blas_threads = int(blas_threads)
        self.timeout = float(timeout)
        self.shape = plan.shape
        self.decomposition = build_sigma_decomposition(
            plan, self.n_workers, self.block_columns
        )
        payload = {
            "plan": plan,
            "decomposition": self.decomposition,
            "blas_threads": self.blas_threads,
            "timeout": self.timeout,
            "heartbeat_interval": self.transport.heartbeat_interval,
            "straggle_seconds": float(straggle_seconds),
        }
        self._procs: list = []
        self._endpoints: dict = {}
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False
        try:
            self.transport.open_heap(heap_arrays(plan), self.n_workers, self.timeout)
            if self.transport.spawns:
                self._spawn(payload)
            deadline = time.monotonic() + self.timeout
            self._endpoints = self.transport.connect(deadline)
            for rank, has_plan in enumerate(self._collect("ready", None, deadline)):
                if not has_plan:  # a worker started by hand
                    self._endpoints[rank].send(("plan", payload))
            self.transport.heap.barrier(self.timeout)
        except BaseException:
            self.close()
            raise

    def _spawn(self, payload: dict) -> None:
        ctx = mp.get_context("spawn")
        saved = {k: os.environ.get(k) for k in _BLAS_ENV}
        try:
            # spawn inherits os.environ: pin every worker's BLAS pool before
            # exec, then restore the parent's own settings
            for k in _BLAS_ENV:
                os.environ[k] = str(self.blas_threads)
            for rank in range(self.n_workers):
                proc = ctx.Process(
                    target=worker_main,
                    args=(rank, self.transport.link(rank), payload),
                    daemon=True,
                    name=f"repro-{self.transport.name}-sigma-{rank}",
                )
                proc.start()
                self._procs.append(proc)
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

    def segment_stores(self) -> list:
        """The heap arrays as zero-copy :class:`DenseStore` views.

        Built on demand and intentionally not retained: a held wrapper
        would keep exported shm buffers alive past :meth:`close` and
        block the parent's unlink.  Callers use them transiently (the
        storage-layer residency gauges) and drop them."""
        from ..core.vectors import DenseStore

        heap = self.transport.heap
        return [DenseStore.wrap(heap.get(name)) for name in heap_arrays(self.plan)]

    # -- one parallel sigma evaluation ----------------------------------------
    def sigma(self, C: np.ndarray) -> SigmaRun:
        C = as_ci_matrix(C, self.shape)
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"{self.transport.name} engine is closed (a worker died or "
                    "close() was called); build a new ParallelSigma/backend"
                )
            try:
                return self._sigma_locked(C)
            except BaseException:
                self.close()
                raise

    def _sigma_locked(self, C: np.ndarray) -> SigmaRun:
        plan = self.plan
        heap = self.transport.heap
        t_wall = time.perf_counter()
        heap.get("C")[...] = C
        heap.zero("one", "aa", "bb", "mix")
        heap.reset_counter()
        self._seq += 1
        for rank, endpoint in sorted(self._endpoints.items()):
            try:
                endpoint.send(("sigma", self._seq))
            except self.transport.lost:
                raise self._died(rank, "control endpoint closed") from None
        stats = self._collect("done", self._seq, time.monotonic() + self.timeout)

        # deterministic left-to-right reduction in the serial kernel's
        # accumulation order: one-electron, alpha-alpha, beta-beta^T, mixed.
        # The ranks saw the same bits of C, so they made the same choice:
        # for C = eps * C^T they left `bb` alone and wrote alpha halves only
        eps = transpose_parity(plan, C)
        sigma = heap.get("one").copy()
        if plan.same_a is not None:
            sigma += heap.get("aa")
        if plan.same_b is not None and not eps:
            sigma += heap.get("bb").T
        sigma += heap.get("mix")
        if eps:
            sigma = add_transpose(sigma, eps)
        elapsed = time.perf_counter() - t_wall

        finish = [s.finish_time for s in stats]
        return SigmaRun(
            sigma=sigma,
            stats=stats,
            elapsed=elapsed,
            load_imbalance=max(finish) - sum(finish) / len(finish),
        )

    def _died(self, rank: int, how: str) -> RuntimeError:
        code = self._procs[rank].exitcode if rank < len(self._procs) else "external"
        return RuntimeError(
            f"{self.transport.name} worker {rank} died ({how}, exitcode={code})"
        )

    def _collect(self, kind: str, seq: int | None, deadline: float) -> list:
        """Await one ``(kind, seq, body)`` per rank; returns the bodies.

        Sleeps until a pending rank's control endpoint is readable, its
        process exits, or its silence budget or the deadline runs out —
        never on a poll tick — and names the first rank found dead.
        """
        name = self.transport.name
        silence = self.transport.silence_budget
        pending = dict(self._endpoints)
        last_seen = dict.fromkeys(pending, time.monotonic())
        bodies: list = [None] * self.n_workers
        while pending:
            now = time.monotonic()
            if now > deadline:
                raise RuntimeError(
                    f"{name} worker(s) {sorted(pending)} unresponsive after "
                    f"{self.timeout:.0f}s"
                )
            wake = deadline - now
            if silence is not None:
                wake = min(wake, min(last_seen.values()) + silence - now)
            procs = {r: self._procs[r] for r in pending if r < len(self._procs)}
            try:
                ready = wait(
                    [*pending.values(), *(p.sentinel for p in procs.values())],
                    max(wake, 0.0),
                )
            except (OSError, ValueError):
                ready = list(pending.values())  # a closed fd: let recv name it
            for rank, endpoint in list(pending.items()):
                if endpoint not in ready:
                    continue
                try:
                    msg = self.transport.recv(
                        endpoint, max(deadline - time.monotonic(), 0.01)
                    )
                except self.transport.lost as exc:
                    raise self._died(rank, f"{type(exc).__name__}: {exc}") from None
                last_seen[rank] = time.monotonic()
                if msg[0] == "hb":
                    continue
                if msg[0] in ("error", "fatal"):
                    raise RuntimeError(f"{name} worker {rank} failed:\n{msg[2]}")
                if msg[0] != kind or (seq is not None and msg[1] != seq):
                    raise RuntimeError(
                        f"{name} worker {rank}: protocol violation, expected "
                        f"{kind!r}, got {msg[:2]}"
                    )
                bodies[rank] = msg[2]
                del pending[rank], last_seen[rank]
            now = time.monotonic()
            for rank in pending:
                if rank in procs and not procs[rank].is_alive():
                    raise self._died(rank, "process exited")
                if silence is not None and now - last_seen[rank] > silence:
                    raise RuntimeError(
                        f"{name} worker {rank} silent for {silence:.1f}s (its "
                        "heartbeat budget); declaring it dead"
                    )
        return bodies

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, join/terminate them, release endpoints and heap."""
        self._closed = True
        for endpoint in self._endpoints.values():
            try:
                endpoint.send(("stop",))
            except self.transport.lost:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []
        self._endpoints = {}
        self.transport.close()
