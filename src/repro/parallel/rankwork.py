"""Rank-level sigma work shared by the real-process execution backends.

The ``shm`` and ``sockets`` backends distribute the *same* decomposition:
the serial kernel's canonical column blocks (:func:`repro.core.kernels
.column_blocks`) are the unit of distribution — same-spin terms
round-robin statically over them, the mixed-spin term runs a dynamically
load-balanced pool of column-block *spans* built by the same size-ordered
aggregation (:func:`repro.parallel.taskpool.build_task_pool`) the
simulated MSPs use.  Because every block is a *whole* canonical column
block, each DGEMM sees exactly the operands the serial kernel would give
it, and the parent's left-to-right reduction of the four owned outputs
(``one`` → ``aa`` → ``bb``:sup:`T` → ``mix``) reproduces the serial
accumulation order — which together make the result bitwise-identical to
``sigma_dgemm`` for any worker count.

This module is that shared decomposition and per-rank program in one
place, so a new substrate (sockets today, MPI tomorrow) cannot drift from
the bitwise contract by re-implementing it: the substrate only decides
*where* the output arrays live (shared-memory segments for ``shm``, local
buffers shipped over TCP for ``sockets``) and *how* tasks are claimed
(the backend's ``fetch_add`` verb).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.kernels import (
    SigmaCounters,
    _alpha_layout,
    _beta_layout,
    column_blocks,
    mixed_spin_sigma_stack,
    same_spin_sigma_stack,
)
from ..core.plans import SigmaPlan
from .taskpool import build_task_pool

__all__ = ["SigmaDecomposition", "build_sigma_decomposition", "run_rank_sigma"]


@dataclass(frozen=True)
class SigmaDecomposition:
    """How one sigma evaluation is carved across worker ranks.

    ``aa_blocks``/``bb_blocks`` are the serial kernel's canonical column
    blocks over the beta/alpha axes (round-robined across ranks);
    ``tasks`` are (start, stop) spans of ``aa_blocks`` indices claimed
    dynamically through ``fetch_add`` for the mixed-spin term.
    """

    aa_blocks: list[tuple[int, int]]
    bb_blocks: list[tuple[int, int]]
    tasks: list[tuple[int, int]]

    def owned_aa_blocks(self, rank: int, n_workers: int) -> list[tuple[int, int]]:
        return self.aa_blocks[rank::n_workers]

    def owned_bb_blocks(self, rank: int, n_workers: int) -> list[tuple[int, int]]:
        return self.bb_blocks[rank::n_workers]

    def task_column_span(self, tid: int) -> tuple[int, int]:
        """The contiguous beta-column range task ``tid`` writes (its owned
        window of the ``mix`` output)."""
        blo, bhi = self.tasks[tid]
        return self.aa_blocks[blo][0], self.aa_blocks[bhi - 1][1]


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
    return SigmaDecomposition(aa_blocks, bb_blocks, [(t.start, t.stop) for t in tasks])


def run_rank_sigma(
    rank: int,
    plan: SigmaPlan,
    C_stack: np.ndarray,
    outs: dict[str, np.ndarray],
    fetch_add,
    *,
    block_columns: int,
    n_workers: int,
    aa_blocks: list[tuple[int, int]],
    bb_blocks: list[tuple[int, int]],
    tasks: list[tuple[int, int]],
    counters: SigmaCounters,
    phase_times: dict[str, float],
    per_task_seconds: float = 0.0,
) -> tuple[int, list[int]]:
    """Execute one rank's share of a sigma evaluation, in place.

    ``outs`` maps ``one``/``aa``/``mix`` to (na, nb) arrays and ``bb`` to
    an (nb, na) array (beta-beta works on the transposed matrix); each
    phase writes only this rank's disjoint owned windows of them, so two
    ranks never touch the same element.  ``fetch_add`` is the backend's
    atomic task-claim verb.  ``per_task_seconds`` is a chaos/test hook: a
    sleep inside every claimed mixed-spin task that widens the span window
    so fault tests can reliably kill a worker *mid-span*.

    Returns ``(n_tasks_done, claimed_task_ids)``.
    """
    bc = block_columns
    na, nb = plan.shape

    # one-electron alpha + beta: rank 0, exactly the serial prologue
    if rank == 0:
        t0 = time.perf_counter()
        one = np.asarray(plan.Ta @ _alpha_layout(C_stack))
        one = one.reshape(na, 1, nb).transpose(1, 0, 2)
        one = one + np.asarray(
            plan.Tb @ _beta_layout(C_stack)
        ).reshape(nb, 1, na).transpose(1, 2, 0)
        outs["one"][...] = one[0]
        phase_times["one-electron"] = time.perf_counter() - t0

    # alpha-alpha doubles: this rank's round-robin share of the beta-axis
    # column blocks, stored into disjoint owned windows of `aa`
    my_aa = aa_blocks[rank::n_workers]
    if plan.same_a is not None and my_aa:
        t0 = time.perf_counter()
        same_spin_sigma_stack(
            plan.same_a,
            plan.w_matrix,
            C_stack,
            bc,
            counters,
            col_blocks=my_aa,
            out=outs["aa"][None],
        )
        phase_times["alpha-alpha"] = time.perf_counter() - t0

    # beta-beta doubles on the transposed stack (paper Fig. 2a), blocks
    # over the alpha axis
    my_bb = bb_blocks[rank::n_workers]
    if plan.same_b is not None and my_bb:
        t0 = time.perf_counter()
        rows_stack = np.ascontiguousarray(C_stack.transpose(0, 2, 1))
        same_spin_sigma_stack(
            plan.same_b,
            plan.w_matrix,
            rows_stack,
            bc,
            counters,
            col_blocks=my_bb,
            out=outs["bb"][None],
        )
        phase_times["beta-beta"] = time.perf_counter() - t0

    # mixed-spin: dynamic task pool over column-block spans
    t0 = time.perf_counter()
    mix_out = outs["mix"][None]
    claimed: list[int] = []
    while True:
        tid = fetch_add()
        if tid >= len(tasks):
            break
        blo, bhi = tasks[tid]
        if per_task_seconds > 0.0:
            time.sleep(per_task_seconds)
        mixed_spin_sigma_stack(
            plan,
            C_stack,
            bc,
            counters,
            col_blocks=aa_blocks[blo:bhi],
            out=mix_out,
        )
        claimed.append(tid)
    phase_times["alpha-beta"] = time.perf_counter() - t0
    return len(claimed), claimed
