"""Worker process for the shared-memory sigma engine.

Each worker is one *rank* of the paper's decomposition, executing on a
real OS process what the simulated MSPs execute in virtual time.  The
per-rank program itself — one-electron prologue on rank 0, round-robin
same-spin column blocks, ``fetch_add``-claimed mixed-spin spans — lives
in :func:`repro.parallel.rankwork.run_rank_sigma`, shared verbatim with
the sockets backend so the two substrates cannot drift from the bitwise
contract.  Here the substrate specifics are: outputs are the parent's
shared-memory segments written in place (zero-copy views), the pickled
:class:`~repro.core.plans.SigmaPlan` arrives once through the spawn args,
and the DLB counter is :meth:`ShmComm.fetch_add`.

Because every block is a *whole* canonical column block, each DGEMM sees
exactly the operands the serial kernel would give it, and the parent's
left-to-right reduction of the four owned segments reproduces the serial
accumulation order — which together make the result bitwise-identical to
``sigma_dgemm`` for any worker count.

BLAS threading is pinned per worker (env vars set by the parent before
spawn; :mod:`threadpoolctl` tightened here when available) so P workers
don't oversubscribe P*threads cores.
"""

from __future__ import annotations

import time
import traceback

from ...core.kernels import SigmaCounters
from ..rankwork import run_rank_sigma
from .comm import ShmComm, ShmCommSpec

__all__ = ["worker_main"]


def _pin_blas_threads(n: int):
    """Best-effort runtime cap on BLAS pool size (env vars already set).

    Returns the threadpoolctl limiter (kept alive for the process
    lifetime) or None when threadpoolctl isn't installed — the env-var
    pinning the parent applied before spawn still holds either way.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return None
    try:
        return threadpool_limits(limits=n)
    except Exception:
        return None


def _run_sigma(rank: int, comm: ShmComm, payload: dict) -> dict:
    """One sigma evaluation; returns the rank's wall-clock stats."""
    plan = payload["plan"]

    counters = SigmaCounters()
    phase_times: dict[str, float] = {}
    t_start = time.perf_counter()

    C_stack = comm.get("C")[None]  # (1, na, nb) window, zero-copy

    # outputs are the shared segments themselves: every phase writes only
    # this rank's disjoint owned windows, in place
    outs = {
        "one": comm.get("one"),
        "aa": comm.get("aa"),
        "bb": comm.get("bb"),
        "mix": comm.get("mix"),
    }
    n_tasks_done, _ = run_rank_sigma(
        rank,
        plan,
        C_stack,
        outs,
        comm.fetch_add,
        block_columns=payload["block_columns"],
        n_workers=payload["n_workers"],
        aa_blocks=payload["aa_blocks"],
        bb_blocks=payload["bb_blocks"],
        tasks=payload["tasks"],
        counters=counters,
        phase_times=phase_times,
        per_task_seconds=payload.get("straggle_seconds", 0.0),
    )

    comm.quiet()  # all owned-segment stores complete before we report done
    busy = time.perf_counter() - t_start
    return {
        "phase_times": phase_times,
        "busy": busy,
        "tasks_done": n_tasks_done,
        **counters.as_dict(),
    }


def worker_main(rank: int, conn, spec: ShmCommSpec, payload: dict) -> None:
    """Entry point of a spawned worker: attach, handshake, serve requests.

    Pipe protocol (parent -> worker): ``("sigma", seq)`` evaluate one
    sigma; ``("stop",)`` exit.  Replies: ``("ready", rank)`` after attach,
    then ``("done", seq, stats)`` or ``("error", seq, traceback_text)``.
    """
    limiter = _pin_blas_threads(payload.get("blas_threads", 1))  # noqa: F841
    comm = None
    try:
        comm = ShmComm.attach(spec)
        conn.send(("ready", rank))
        comm.barrier(payload.get("timeout"))
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "stop":
                break
            if msg[0] == "sigma":
                seq = msg[1]
                try:
                    stats = _run_sigma(rank, comm, payload)
                    conn.send(("done", seq, stats))
                except Exception:
                    conn.send(("error", seq, traceback.format_exc()))
    except Exception:
        try:
            conn.send(("fatal", rank, traceback.format_exc()))
        except Exception:
            pass
    finally:
        if comm is not None:
            comm.close()
        conn.close()
