"""Sockets sigma engine: multi-process workers reached only over TCP.

:class:`SocketSigmaEngine` executes the same decomposition as the shm
engine (:func:`repro.parallel.rankwork.build_sigma_decomposition` — the
serial kernel's canonical column blocks round-robined for the same-spin
terms, size-ordered task-pool spans claimed through ``fetch_add`` for the
mixed-spin term), but the substrate is a :class:`Coordinator` serving the
symmetric heap over length-prefixed TCP messages:

* **lifecycle**: workers are spawned once on loopback (``spawn=
  "process"``, the default; each unpickles the cached
  :class:`~repro.core.plans.SigmaPlan` a single time from the spawn args,
  BLAS threads pinned through the environment) or join from other
  terminals/hosts (``spawn="external"``: the engine ships the plan over
  the control channel to each joiner), and serve ``("sigma", seq)``
  requests until :meth:`close`,
* **failure detection**: every worker heartbeats on its control channel;
  while collecting results the engine watches for EOF (process death) and
  heartbeat silence (``heartbeat_interval * heartbeat_misses``), raising
  a ``RuntimeError`` that names the dead rank (and its exit code when
  spawned) instead of hanging — the whole call is additionally bounded by
  ``timeout``,
* **determinism**: workers compute into local buffers and ``acc`` their
  disjoint owned windows into parent-zeroed segments (a bitwise store),
  fence with ``quiet``, then report ``done``; the parent reduces
  one → aa → bb\\ :sup:`T` → mix in the serial kernel's accumulation
  order, so sigma is bitwise-identical to serial ``sigma_dgemm`` at the
  same ``block_columns`` for any worker count,
* **observability**: per-rank :class:`~repro.x1.engine.RankStats` carry
  measured wall-clock phase times, *actual wire bytes* moved on the data
  channel, and kernel FLOPs — the same schema every other backend emits.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import select
import threading
import time

import numpy as np

from ...core.plans import SigmaPlan
from ...x1.engine import RankStats
from ..backend import SigmaRun
from ..rankwork import build_sigma_decomposition
from .coordinator import Coordinator
from .wire import WireClosed, WireError

__all__ = ["SocketSigmaEngine"]

# every BLAS/OpenMP runtime numpy might load reads one of these at startup
_BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SocketSigmaEngine:
    """Persistent fleet of sigma workers behind a TCP coordinator."""

    def __init__(
        self,
        plan: SigmaPlan,
        *,
        n_workers: int,
        block_columns: int,
        blas_threads: int = 1,
        timeout: float = 300.0,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        spawn: str = "process",
        heartbeat_interval: float = 0.25,
        heartbeat_misses: int = 40,
        straggle_seconds: float = 0.0,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if spawn not in ("process", "external"):
            raise ValueError(
                f"spawn must be 'process' (loopback pool) or 'external' "
                f"(workers join by hand); got {spawn!r}"
            )
        self.plan = plan
        self.n_workers = int(n_workers)
        self.block_columns = int(block_columns)
        self.blas_threads = int(blas_threads)
        self.timeout = float(timeout)
        self.spawn = spawn
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        na, nb = plan.shape
        self.shape = (na, nb)

        decomp = build_sigma_decomposition(plan, self.n_workers, self.block_columns)
        self.decomposition = decomp
        self.aa_blocks = decomp.aa_blocks
        self.bb_blocks = decomp.bb_blocks
        self.tasks = decomp.tasks

        self.coordinator = Coordinator(
            arrays={
                "C": (na, nb),
                "one": (na, nb),
                "aa": (na, nb),
                "bb": (nb, na),  # beta-beta works on the transposed matrix
                "mix": (na, nb),
            },
            n_ranks=self.n_workers,
            host=host,
            port=port,
            token=token,
            timeout=self.timeout,
            heartbeat_interval=self.heartbeat_interval,
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
            "heartbeat_interval": self.heartbeat_interval,
            "straggle_seconds": float(straggle_seconds),
        }
        self._payload = payload
        self._procs: list = []
        self._ctrl: dict = {}
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False
        try:
            if spawn == "process":
                self._spawn_workers(payload)
            self._handshake(payload)
        except BaseException:
            self.close()
            raise

    def _spawn_workers(self, payload: dict) -> None:
        ctx = mp.get_context("spawn")
        spec = self.coordinator.spec()
        saved = {k: os.environ.get(k) for k in _BLAS_ENV}
        try:
            # spawn inherits os.environ: pin every worker's BLAS pool before
            # exec, then restore the parent's own settings
            for k in _BLAS_ENV:
                os.environ[k] = str(self.blas_threads)
            from .worker import worker_main

            for rank in range(self.n_workers):
                proc = ctx.Process(
                    target=worker_main,
                    args=(rank, spec, payload),
                    daemon=True,
                    name=f"repro-sockets-sigma-{rank}",
                )
                proc.start()
                self._procs.append(proc)
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

    def _handshake(self, payload: dict) -> None:
        """Wait for every rank to join, deliver the plan to external
        joiners, then rendezvous at the startup barrier."""
        deadline = time.monotonic() + self.timeout
        self._ctrl = self.coordinator.wait_for_ctrl(deadline)
        for rank, ch in sorted(self._ctrl.items()):
            msg = self._recv_ctrl(rank, ch, max(deadline - time.monotonic(), 0.01))
            if msg[0] == "fatal":
                raise RuntimeError(
                    f"socket worker {rank} failed to start:\n{msg[2]}"
                )
            if msg[0] != "ready":
                raise RuntimeError(
                    f"socket worker {rank}: protocol violation during "
                    f"handshake, got {msg[0]!r}"
                )
            if not msg[2]:  # external worker without the plan
                ch.send(("plan", payload))
        self.coordinator.barrier(self.timeout)

    # -- plumbing -------------------------------------------------------------
    def _exitcode(self, rank: int):
        if rank < len(self._procs):
            return self._procs[rank].exitcode
        return "external"

    def _recv_ctrl(self, rank: int, ch, timeout: float):
        try:
            return ch.recv(timeout=timeout)
        except WireClosed:
            raise RuntimeError(
                f"socket worker {rank} died "
                f"(connection lost, exitcode={self._exitcode(rank)})"
            ) from None
        except WireError as exc:
            raise RuntimeError(
                f"socket worker {rank} unresponsive: {exc} "
                f"(exitcode={self._exitcode(rank)})"
            ) from None

    def segment_stores(self) -> list:
        """The coordinator's heap arrays as zero-copy DenseStore views
        (transient, for the storage-layer residency gauges)."""
        from ...core.vectors import DenseStore

        return [
            DenseStore.wrap(self.coordinator.get(name))
            for name in ("C", "one", "aa", "bb", "mix")
        ]

    # -- one parallel sigma evaluation ----------------------------------------
    def sigma(self, C: np.ndarray) -> SigmaRun:
        na, nb = self.shape
        C = np.asarray(C, dtype=np.float64)
        if C.shape != (na, nb):
            raise ValueError(f"C must have shape {(na, nb)}, got {C.shape}")
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "sockets engine is closed (a worker died or close() was "
                    "called); build a new ParallelSigma/backend"
                )
            return self._sigma_locked(C)

    def _sigma_locked(self, C: np.ndarray) -> SigmaRun:
        plan = self.plan
        co = self.coordinator
        t_wall = time.perf_counter()
        co.get("C")[...] = C
        co.zero("one", "aa", "bb", "mix")
        co.reset_counter()
        self._seq += 1
        seq = self._seq
        try:
            for rank, ch in sorted(self._ctrl.items()):
                try:
                    ch.send(("sigma", seq))
                except WireError:
                    raise RuntimeError(
                        f"socket worker {rank} died "
                        f"(exitcode={self._exitcode(rank)})"
                    ) from None
            replies = self._collect(seq)
        except BaseException:
            self.close()
            raise

        # deterministic left-to-right reduction in the serial kernel's
        # accumulation order: one-electron, alpha-alpha, beta-beta^T, mixed
        sigma = co.get("one").copy()
        if plan.same_a is not None:
            sigma += co.get("aa")
        if plan.same_b is not None:
            sigma += co.get("bb").T
        sigma += co.get("mix")
        elapsed = time.perf_counter() - t_wall

        stats = []
        for r in replies:
            stats.append(
                RankStats(
                    compute=r["busy"],
                    bytes_sent=float(r["wire_tx"]),
                    bytes_received=float(r["wire_rx"]),
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

    def _collect(self, seq: int) -> list[dict]:
        """Await one ``done`` per rank, watching heartbeats the whole way.

        A rank is declared dead on control-channel EOF or after
        ``heartbeat_interval * heartbeat_misses`` seconds of total
        silence; either way the caller gets a ``RuntimeError`` naming the
        rank — never a hang past ``timeout``.
        """
        hb_budget = self.heartbeat_interval * self.heartbeat_misses
        deadline = time.monotonic() + self.timeout
        pending = dict(self._ctrl)
        last_seen = {rank: time.monotonic() for rank in pending}
        replies: list[dict] = [None] * self.n_workers
        while pending:
            now = time.monotonic()
            if now > deadline:
                raise RuntimeError(
                    f"sockets sigma timed out after {self.timeout:.0f}s; "
                    f"ranks still pending: {sorted(pending)}"
                )
            channels = list(pending.values())
            try:
                readable, _, _ = select.select(channels, [], [], 0.05)
            except (OSError, ValueError):
                readable = channels  # a closed fd: let recv raise per-rank
            by_channel = {ch: rank for rank, ch in pending.items()}
            for ch in readable:
                rank = by_channel[ch]
                msg = self._recv_ctrl(rank, ch, max(deadline - time.monotonic(), 0.01))
                last_seen[rank] = time.monotonic()
                if msg[0] == "hb":
                    continue
                if msg[0] == "error":
                    raise RuntimeError(
                        f"socket worker {rank} failed in sigma:\n{msg[2]}"
                    )
                if msg[0] == "fatal":
                    raise RuntimeError(
                        f"socket worker {rank} died:\n{msg[2]}"
                    )
                if msg[0] != "done" or msg[1] != seq:
                    raise RuntimeError(
                        f"socket worker {rank}: protocol violation, got {msg[:2]}"
                    )
                replies[rank] = msg[2]
                del pending[rank]
            now = time.monotonic()
            for rank in list(pending):
                alive_hint = ""
                if rank < len(self._procs):
                    proc = self._procs[rank]
                    if not proc.is_alive():
                        raise RuntimeError(
                            f"socket worker {rank} died mid-sigma "
                            f"(process exited, exitcode={proc.exitcode})"
                        )
                    alive_hint = f", process alive={proc.is_alive()}"
                if now - last_seen[rank] > hb_budget:
                    raise RuntimeError(
                        f"socket worker {rank} missed {self.heartbeat_misses} "
                        f"heartbeats ({hb_budget:.1f}s silent{alive_hint}); "
                        "declaring it dead"
                    )
        return replies

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, join/terminate, release the coordinator's port."""
        self._closed = True
        for ch in self._ctrl.values():
            try:
                ch.send(("stop",))
            except WireError:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []
        self._ctrl = {}
        self.coordinator.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
