"""Rank-level sigma work shared by the real-process execution backends.

The ``shm`` and ``sockets`` backends distribute the *same* decomposition:
the serial kernel's canonical column blocks (:func:`repro.core.kernels
.column_blocks`) are the unit of distribution — same-spin terms
round-robin statically over them, the mixed-spin term runs a dynamically
load-balanced pool of column-block *spans* built by the same size-ordered
aggregation (:func:`repro.parallel.taskpool.build_task_pool`) the
simulated MSPs use.  Because every block is a *whole* canonical column
block, each DGEMM sees exactly the operands the serial kernel would give
it, and the parent's left-to-right reduction of the three owned outputs
(``aa`` → ``bb``:sup:`T` → ``mix``) repeats the order in which the serial
kernel's sweeps add into its one sigma — which together make the result
bitwise-identical to ``sigma_dgemm`` for any worker count.  The mixed-spin
term does not depend on the blocking at all — every beta column is its
own DGEMM (:func:`repro.core.kernels.mixed_spin_sigma`).

There is no one-electron phase: h rides in the plan's ``g_sweep`` /
``w_sweep`` (:func:`repro.core.plans.absorb_h1e`).  Only a one-electron
space has nothing to fold it into; there sigma = T C is the whole of it,
and each rank writes the columns of its owned ``aa_blocks`` of it into
``aa`` (a CSR product adds a row's entries left to right column by
column, so a column slice is bitwise those columns of the serial product).

For C = ε·Cᵀ on a closed-shell space the serial kernel evaluates only the
alpha half Z of sigma and completes σ = Z + ε·Zᵀ
(:mod:`repro.core.kernels`), and so do the ranks: each evaluates the same
exact :func:`~repro.core.kernels.transpose_parity` on the C it holds — the
same bits everywhere, so all ranks and the parent agree with no change to
the ``("sigma", seq)`` message — and then leaves ``bb`` alone and runs
every mixed-spin block with its signs halved; the parent's reduction adds
the transpose (the paper's "vector symm" step).  Same blocks, same operands, same order: still
bitwise-identical to the serial kernel.

This module is that shared decomposition, the per-rank program and the
worker process that serves it (:func:`worker_main`) in one place, so a
new substrate (sockets today, MPI tomorrow) cannot drift from the bitwise
contract by re-implementing it: the substrate's comm only decides *where*
the output arrays live (``live_windows``: shared-memory segments written
in place for ``shm``; otherwise local buffers whose owned windows are
shipped with ``acc`` and fenced with ``quiet`` for ``sockets``) and *how*
tasks are claimed (its ``fetch_add`` verb).  The parent side of the same
conversation is :class:`repro.parallel.engine.RankEngine`.

BLAS threading is pinned per worker (env vars set by the engine before
spawn; :mod:`threadpoolctl` tightened here when available) so P workers
don't oversubscribe P*threads cores.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..core.kernels import (
    SigmaCounters,
    column_blocks,
    mixed_spin_sigma,
    one_electron_sigma,
    same_spin_sigma,
    transpose_parity,
)
from ..core.plans import SigmaPlan
from ..x1.engine import RankStats
from .taskpool import build_task_pool

__all__ = [
    "SigmaDecomposition",
    "build_sigma_decomposition",
    "heap_arrays",
    "run_rank_sigma",
    "worker_main",
]


@dataclass(frozen=True)
class SigmaDecomposition:
    """How one sigma evaluation is carved across worker ranks.

    ``aa_blocks``/``bb_blocks`` are the serial kernel's canonical column
    blocks (``block_columns`` wide) over the beta/alpha axes, round-robined
    across the ``n_workers`` ranks; ``tasks`` are (start, stop) spans of
    ``aa_blocks`` indices claimed dynamically through ``fetch_add`` for the
    mixed-spin term.
    """

    n_workers: int
    block_columns: int
    aa_blocks: list[tuple[int, int]]
    bb_blocks: list[tuple[int, int]]
    tasks: list[tuple[int, int]]

    def owned_aa_blocks(self, rank: int) -> list[tuple[int, int]]:
        return self.aa_blocks[rank :: self.n_workers]

    def owned_bb_blocks(self, rank: int) -> list[tuple[int, int]]:
        return self.bb_blocks[rank :: self.n_workers]

    def task_column_span(self, tid: int) -> tuple[int, int]:
        """The contiguous beta-column range task ``tid`` writes (its owned
        window of the ``mix`` output)."""
        blo, bhi = self.tasks[tid]
        return self.aa_blocks[blo][0], self.aa_blocks[bhi - 1][1]


def heap_arrays(plan: SigmaPlan) -> dict[str, tuple[int, int]]:
    """The symmetric heap of one sigma evaluation: ``C`` in, and one output
    array per phase for the ranks' disjoint owned windows."""
    na, nb = plan.shape
    # beta-beta works on the transposed matrix
    return {"C": (na, nb), "aa": (na, nb), "bb": (nb, na), "mix": (na, nb)}


def build_sigma_decomposition(
    plan: SigmaPlan, n_workers: int, block_columns: int
) -> SigmaDecomposition:
    """The one decomposition both real-process backends execute.

    Cost of a mixed-spin block ~ its GEMM work (width x alpha dimension);
    the pool parameters are fixed here so every backend aggregates the
    identical spans.
    """
    na, nb = plan.shape
    aa_blocks = column_blocks(nb, block_columns)
    bb_blocks = column_blocks(na, block_columns)
    block_costs = np.array([(hi - lo) * na for lo, hi in aa_blocks], float)
    tasks = build_task_pool(
        block_costs,
        n_workers,
        n_fine_per_proc=2,
        n_large_per_proc=1,
        n_small_per_proc=2,
    )
    return SigmaDecomposition(
        n_workers, block_columns, aa_blocks, bb_blocks, [(t.start, t.stop) for t in tasks]
    )


def run_rank_sigma(
    rank: int,
    plan: SigmaPlan,
    C: np.ndarray,
    outs: dict[str, np.ndarray],
    fetch_add,
    decomposition: SigmaDecomposition,
    *,
    counters: SigmaCounters,
    phase_times: dict[str, float],
    per_task_seconds: float = 0.0,
) -> list[int]:
    """Execute one rank's share of ``decomposition``, in place.

    ``outs`` maps ``aa``/``mix`` to (na, nb) arrays and ``bb`` to an
    (nb, na) array (beta-beta works on the transposed matrix), all zeroed;
    each phase adds into only this rank's disjoint owned windows of them,
    so two ranks never touch the same element.  ``fetch_add`` is the
    backend's atomic task-claim verb.  ``per_task_seconds`` is a chaos/test
    hook: a sleep inside every claimed mixed-spin task that widens the span
    window so fault tests can reliably kill a worker *mid-span*.

    Returns the ids of the mixed-spin tasks this rank claimed.
    """
    bc = decomposition.block_columns
    aa_blocks, tasks = decomposition.aa_blocks, decomposition.tasks
    # C = eps * C^T: the alpha half only, as in the serial kernel; the
    # parent completes sigma by transpose
    half = bool(transpose_parity(plan, C))
    Ct = np.ascontiguousarray(C.T)

    # alpha-alpha doubles (or, on a one-electron space, sigma = T C): this
    # rank's round-robin share of the beta-axis column blocks, added into
    # disjoint owned windows of `aa`
    my_aa = decomposition.owned_aa_blocks(rank)
    if plan.one_electron_only and my_aa:
        t0 = time.perf_counter()
        for lo, hi in my_aa:
            outs["aa"][:, lo:hi] = one_electron_sigma(plan, C, Ct, slice(lo, hi))
        phase_times["one-electron"] = time.perf_counter() - t0
    if plan.same_a is not None and my_aa:
        t0 = time.perf_counter()
        same_spin_sigma(
            plan.same_a, plan.w_sweep, C, bc, counters, col_blocks=my_aa, out=outs["aa"]
        )
        phase_times["alpha-alpha"] = time.perf_counter() - t0

    # beta-beta doubles on the transposed matrix (paper Fig. 2a), blocks
    # over the alpha axis
    my_bb = decomposition.owned_bb_blocks(rank)
    if plan.same_b is not None and my_bb and not half:
        t0 = time.perf_counter()
        same_spin_sigma(
            plan.same_b, plan.w_sweep, Ct, bc, counters, col_blocks=my_bb, out=outs["bb"]
        )
        phase_times["beta-beta"] = time.perf_counter() - t0

    # mixed-spin: dynamic task pool over column-block spans, fed to ONE sweep
    # (the rank's one transposed copy of C, one scratch per rank per sigma) by
    # a generator that claims the next task only when the sweep asks for its
    # next block
    claimed: list[int] = []

    def claimed_blocks():
        while (tid := fetch_add()) < len(tasks):
            blo, bhi = tasks[tid]
            if per_task_seconds > 0.0:
                time.sleep(per_task_seconds)
            yield from aa_blocks[blo:bhi]
            claimed.append(tid)

    t0 = time.perf_counter()
    mixed_spin_sigma(
        plan, C, bc, counters, G=plan.g_sweep, Ct=Ct,
        col_blocks=claimed_blocks(), out=outs["mix"], half=half,
    )
    phase_times["alpha-beta"] = time.perf_counter() - t0
    return claimed


# -- the worker process -------------------------------------------------------


def _pin_blas_threads(n: int):
    """Best-effort runtime cap on BLAS pool size (env vars already set).

    Returns the threadpoolctl limiter (kept alive for the process
    lifetime) or None when threadpoolctl isn't installed — the env-var
    pinning the engine applied before spawn still holds either way.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return None
    try:
        return threadpool_limits(limits=n)
    except Exception:
        return None


def _run_sigma(rank: int, comm, payload: dict) -> RankStats:
    """One sigma evaluation on this rank; returns its wall-clock stats."""
    plan = payload["plan"]
    decomp: SigmaDecomposition = payload["decomposition"]

    counters = SigmaCounters()
    phase_times: dict[str, float] = {}
    t_start = time.perf_counter()

    # shm: a zero-copy (na, nb) window; sockets: one framed fetch of the
    # whole coefficient matrix (the "replicated C" a remote rank cannot
    # window into for free the way shared memory can)
    C = comm.get("C")

    shapes = {n: shape for n, shape in heap_arrays(plan).items() if n != "C"}
    if comm.live_windows:
        # outputs are the shared segments themselves: every phase writes
        # only this rank's disjoint owned windows, in place
        outs = {name: comm.get(name) for name in shapes}
    else:
        # local zeroed buffers standing in for the owned segments
        outs = {name: np.zeros(shape) for name, shape in shapes.items()}

    claimed = run_rank_sigma(
        rank,
        plan,
        C,
        outs,
        comm.fetch_add,
        decomp,
        counters=counters,
        phase_times=phase_times,
        per_task_seconds=payload["straggle_seconds"],
    )

    if comm.live_windows:
        comm.quiet()  # all owned-segment stores complete before we report done
        # no wire: the traffic is what the kernels moved through the windows
        sent, received = 8 * counters.scatter_elements, 8 * counters.gather_elements
    else:
        # ship the owned windows: acc into segments the parent zeroed, which
        # is a store (0.0 + x) element-for-element because the windows are
        # disjoint — then fence with quiet before reporting done
        t0 = time.perf_counter()
        rows = slice(None)
        if plan.same_a is not None or plan.one_electron_only:
            for lo, hi in decomp.owned_aa_blocks(rank):
                comm.acc("aa", (rows, slice(lo, hi)), outs["aa"][:, lo:hi])
        if "beta-beta" in phase_times:  # not run for C = eps * C^T
            for lo, hi in decomp.owned_bb_blocks(rank):
                comm.acc("bb", (rows, slice(lo, hi)), outs["bb"][:, lo:hi])
        for tid in claimed:
            lo, hi = decomp.task_column_span(tid)
            comm.acc("mix", (rows, slice(lo, hi)), outs["mix"][:, lo:hi])
        comm.quiet()
        phase_times["wire-ship"] = time.perf_counter() - t0
        sent, received = comm.tx_bytes, comm.rx_bytes  # actual wire bytes

    busy = time.perf_counter() - t_start
    return RankStats(
        compute=busy,
        bytes_sent=float(sent),
        bytes_received=float(received),
        flops=float(counters.dgemm_flops),
        finish_time=busy,
        phase_times=phase_times,
    )


def worker_main(rank: int | None, link, payload: dict | None) -> None:
    """Entry point of one worker rank: join, handshake, serve sigma requests.

    ``link`` is the transport's picklable worker-side handle:
    ``open_ctrl(rank)`` returns this rank's number (the coordinator assigns
    one to an external joiner) and its control endpoint, ``open_comm(rank)``
    its five-verb comm, and ``lost`` are the exceptions a vanished engine
    raises on the endpoint.  ``payload`` is None for a worker started by
    hand, which receives it over the control endpoint.

    Control protocol (engine -> worker): ``("sigma", seq)`` evaluate one
    sigma; ``("stop",)`` exit; ``("plan", payload)`` delivers the payload
    to a worker that joined without one.  Worker -> engine: ``("ready",
    rank, has_payload)`` once endpoint and comm are up, ``("hb", rank)``
    heartbeats, then ``("done", seq, stats)`` or ``("error", seq,
    traceback_text)``; ``("fatal", rank, traceback_text)`` before dying.
    """
    ctrl = comm = None
    stop_hb = threading.Event()
    try:
        rank, ctrl = link.open_ctrl(rank)
        comm = link.open_comm(rank)
        ctrl.send(("ready", rank, payload is not None))
        if payload is None:
            msg = ctrl.recv()
            if msg[0] != "plan":
                raise RuntimeError(f"expected plan delivery, got {msg[0]!r}")
            payload = msg[1]
        limiter = _pin_blas_threads(payload["blas_threads"])  # noqa: F841

        def _heartbeat():
            # how the engine tells a long DGEMM from a dead process
            while not stop_hb.wait(payload["heartbeat_interval"]):
                try:
                    ctrl.send(("hb", rank))
                except link.lost:
                    return

        if payload["heartbeat_interval"] is not None:
            threading.Thread(
                target=_heartbeat, name="repro-rank-hb", daemon=True
            ).start()
        comm.barrier(payload["timeout"])
        while True:
            try:
                msg = ctrl.recv()
            except link.lost:
                break
            if msg[0] == "stop":
                break
            if msg[0] == "sigma":
                seq = msg[1]
                try:
                    ctrl.send(("done", seq, _run_sigma(rank, comm, payload)))
                except Exception:
                    ctrl.send(("error", seq, traceback.format_exc()))
    except Exception:
        if ctrl is not None:
            try:
                ctrl.send(("fatal", rank, traceback.format_exc()))
            except Exception:
                pass
    finally:
        stop_hb.set()
        if comm is not None:
            comm.close()
        if ctrl is not None:
            ctrl.close()
