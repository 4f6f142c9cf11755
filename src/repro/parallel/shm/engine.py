"""Shared-memory sigma engine: real processes, bitwise-serial results.

:class:`ShmSigmaEngine` executes the paper's parallel sigma decomposition
on spawned OS processes over a :class:`~repro.parallel.shm.comm.ShmComm`:

* decomposition: the serial kernel's canonical column blocks
  (:func:`repro.core.kernels.column_blocks`) are the distribution unit —
  same-spin terms round-robin statically, the mixed-spin term runs a
  dynamically load-balanced pool of column-block *spans* built by the
  same size-ordered aggregation (:func:`repro.parallel.taskpool
  .build_task_pool`) the simulated MSPs use,
* accumulation: each phase writes disjoint owned windows of its own
  shared segment (``one``/``aa``/``bb``/``mix``); the parent reduces the
  four segments left-to-right in the serial kernel's accumulation order,
  so sigma is bitwise-identical to ``DgemmKernel.apply`` for any worker
  count,
* lifecycle: workers are spawned once (each unpickling the
  :class:`~repro.core.plans.SigmaPlan` a single time, with BLAS threads
  pinned through the environment before spawn) and serve sigma requests
  over pipes until :meth:`close`, so eigensolver iterations pay the
  spawn cost once,
* observability: every call returns a
  :class:`~repro.parallel.backend.SigmaRun` whose per-rank
  :class:`~repro.x1.engine.RankStats` carry measured wall-clock phase
  times, bytes gathered/scattered, and kernel FLOPs — the same schema the
  simulated engine emits, so ``ParallelReport`` and the obs accounting
  work unchanged.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

import numpy as np

from ...core.plans import SigmaPlan
from ...x1.engine import RankStats
from ..backend import SigmaRun
from ..rankwork import build_sigma_decomposition
from .comm import ShmComm

__all__ = ["ShmSigmaEngine"]

# every BLAS/OpenMP runtime numpy might load reads one of these at startup
_BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ShmSigmaEngine:
    """Persistent pool of sigma workers over shared memory."""

    def __init__(
        self,
        plan: SigmaPlan,
        *,
        n_workers: int,
        block_columns: int,
        blas_threads: int = 1,
        timeout: float = 300.0,
        straggle_seconds: float = 0.0,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.plan = plan
        self.n_workers = int(n_workers)
        self.block_columns = int(block_columns)
        self.blas_threads = int(blas_threads)
        self.timeout = float(timeout)
        na, nb = plan.shape
        self.shape = (na, nb)

        # the one decomposition shared with the sockets backend: canonical
        # column blocks round-robined, size-ordered mixed-spin spans
        decomp = build_sigma_decomposition(plan, self.n_workers, self.block_columns)
        self.decomposition = decomp
        self.aa_blocks = decomp.aa_blocks
        self.bb_blocks = decomp.bb_blocks
        self.tasks = decomp.tasks

        ctx = mp.get_context("spawn")
        self.comm = ShmComm(
            ctx,
            arrays={
                "C": (na, nb),
                "one": (na, nb),
                "aa": (na, nb),
                "bb": (nb, na),  # beta-beta works on the transposed matrix
                "mix": (na, nb),
            },
            n_ranks=self.n_workers,
        )
        payload = {
            "plan": plan,
            "block_columns": self.block_columns,
            "n_workers": self.n_workers,
            "aa_blocks": self.aa_blocks,
            "bb_blocks": self.bb_blocks,
            "tasks": self.tasks,
            "blas_threads": self.blas_threads,
            "timeout": self.timeout,
            "straggle_seconds": float(straggle_seconds),
        }
        self._procs: list = []
        self._conns: list = []
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False
        spec = self.comm.spec()
        saved = {k: os.environ.get(k) for k in _BLAS_ENV}
        try:
            # spawn inherits os.environ: pin every worker's BLAS pool before
            # exec, then restore the parent's own settings
            for k in _BLAS_ENV:
                os.environ[k] = str(self.blas_threads)
            from .worker import worker_main

            for rank in range(self.n_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=worker_main,
                    args=(rank, child_conn, spec, payload),
                    daemon=True,
                    name=f"repro-shm-sigma-{rank}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except BaseException:
            self.close()
            raise
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        try:
            for rank, conn in enumerate(self._conns):
                msg = self._recv(rank, conn, self.timeout)
                if msg[0] != "ready":
                    raise RuntimeError(f"shm worker {rank} failed to start: {msg}")
            self.comm.barrier(self.timeout)
        except BaseException:
            self.close()
            raise

    def segment_stores(self) -> list:
        """The shared segments as zero-copy :class:`DenseStore` views.

        Built on demand and intentionally not retained: a held wrapper
        would keep the exported shm buffers alive past :meth:`close` and
        block the parent's unlink.  Callers use them transiently (the
        storage-layer residency gauges) and drop them."""
        from ...core.vectors import DenseStore

        return [
            DenseStore.wrap(self.comm.get(name))
            for name in ("C", "one", "aa", "bb", "mix")
        ]

    # -- plumbing -------------------------------------------------------------
    def _recv(self, rank: int, conn, timeout: float):
        if not conn.poll(timeout):
            alive = self._procs[rank].is_alive()
            code = self._procs[rank].exitcode
            raise RuntimeError(
                f"shm worker {rank} unresponsive after {timeout:.0f}s "
                f"(alive={alive}, exitcode={code})"
            )
        try:
            return conn.recv()
        except EOFError:
            code = self._procs[rank].exitcode
            raise RuntimeError(
                f"shm worker {rank} died (exitcode={code})"
            ) from None

    # -- one parallel sigma evaluation ----------------------------------------
    def sigma(self, C: np.ndarray) -> SigmaRun:
        na, nb = self.shape
        C = np.asarray(C, dtype=np.float64)
        if C.shape != (na, nb):
            raise ValueError(f"C must have shape {(na, nb)}, got {C.shape}")
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "shm engine is closed (a worker died or close() was "
                    "called); build a new ParallelSigma/backend"
                )
            return self._sigma_locked(C)

    def _sigma_locked(self, C: np.ndarray) -> SigmaRun:
        plan = self.plan
        t_wall = time.perf_counter()
        self.comm.get("C")[...] = C
        self.comm.zero("one", "aa", "bb", "mix")
        self.comm.reset_counter()
        self._seq += 1
        seq = self._seq
        for rank, conn in enumerate(self._conns):
            try:
                conn.send(("sigma", seq))
            except OSError:
                code = self._procs[rank].exitcode
                self.close()
                raise RuntimeError(
                    f"shm worker {rank} died (exitcode={code})"
                ) from None

        deadline = time.perf_counter() + self.timeout
        replies: list[dict] = [None] * self.n_workers
        try:
            for rank, conn in enumerate(self._conns):
                msg = self._recv(rank, conn, max(deadline - time.perf_counter(), 0.0))
                if msg[0] == "error":
                    raise RuntimeError(
                        f"shm worker {rank} failed in sigma:\n{msg[2]}"
                    )
                if msg[0] != "done" or msg[1] != seq:
                    raise RuntimeError(
                        f"shm worker {rank}: protocol violation, got {msg[:2]}"
                    )
                replies[rank] = msg[2]
        except BaseException:
            self.close()
            raise

        # deterministic left-to-right reduction in the serial kernel's
        # accumulation order: one-electron, alpha-alpha, beta-beta^T, mixed
        sigma = self.comm.get("one").copy()
        if plan.same_a is not None:
            sigma += self.comm.get("aa")
        if plan.same_b is not None:
            sigma += self.comm.get("bb").T
        sigma += self.comm.get("mix")
        elapsed = time.perf_counter() - t_wall

        stats = []
        for r in replies:
            stats.append(
                RankStats(
                    compute=r["busy"],
                    bytes_sent=8.0 * r["scatter_elements"],
                    bytes_received=8.0 * r["gather_elements"],
                    flops=float(r["dgemm_flops"]),
                    finish_time=r["busy"],
                    phase_times=dict(r["phase_times"]),
                )
            )
        finish = [s.finish_time for s in stats]
        imbalance = max(finish) - sum(finish) / len(finish)
        return SigmaRun(
            sigma=sigma,
            stats=stats,
            elapsed=elapsed,
            load_imbalance=imbalance,
        )

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, join, and release the shared segments."""
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs = []
        self._conns = []
        self.comm.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
