"""Worker process for the sockets sigma engine.

Each worker is one *rank* of the paper's decomposition on a real OS
process reached only through TCP — spawned on loopback by the engine, or
started by hand on another terminal (or, tomorrow, another host) with::

    python -m repro.parallel.sockets.worker --host H --port P --token T

A worker opens two channels to the coordinator: the control channel
(``ready``/``plan``/``sigma``/``done``/``error`` plus heartbeats every
``heartbeat_interval`` seconds, which is how the engine distinguishes a
long DGEMM from a dead process) and the data channel
(:class:`~repro.parallel.sockets.comm.SocketComm`, the five DDI verbs).

Spawned workers receive the pickled :class:`~repro.core.plans.SigmaPlan`
once through the spawn args (the paper's replicated coupling tables);
external workers request it once over the control channel.  Either way
the per-rank program is :func:`repro.parallel.rankwork.run_rank_sigma` —
*the same code the shm workers run* — into local zeroed buffers whose
disjoint owned windows are then shipped with ``acc`` and fenced with
``quiet`` before ``done`` is reported, so the parent's deterministic
one → aa → bb\\ :sup:`T` → mix reduction stays bitwise-identical to the
serial kernel for any worker count.
"""

from __future__ import annotations

import threading
import time
import traceback

import numpy as np

from ...core.kernels import SigmaCounters
from ..rankwork import run_rank_sigma
from .comm import SocketComm
from .coordinator import SocketCommSpec
from .wire import WireError, connect_with_retry

__all__ = ["worker_main", "main"]


def _pin_blas_threads(n: int):
    """Best-effort runtime cap on BLAS pool size (env vars already set)."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return None
    try:
        return threadpool_limits(limits=n)
    except Exception:
        return None


def _run_sigma(rank: int, comm: SocketComm, payload: dict) -> dict:
    """One sigma evaluation; returns the rank's wall-clock stats."""
    plan = payload["plan"]
    bc = payload["block_columns"]
    n_workers = payload["n_workers"]
    aa_blocks = payload["aa_blocks"]
    bb_blocks = payload["bb_blocks"]
    tasks = payload["tasks"]
    na, nb = plan.shape

    counters = SigmaCounters()
    phase_times: dict[str, float] = {}
    t_start = time.perf_counter()

    # one framed fetch of the whole coefficient matrix (the "replicated C"
    # a remote rank cannot window into for free the way shared memory can)
    C_stack = comm.get("C")[None]

    # local zeroed buffers standing in for the shm backend's owned
    # segments; only this rank's disjoint owned windows get written
    outs: dict[str, np.ndarray] = {"mix": np.zeros((na, nb))}
    if rank == 0:
        outs["one"] = np.zeros((na, nb))
    my_aa = aa_blocks[rank::n_workers]
    my_bb = bb_blocks[rank::n_workers]
    if plan.same_a is not None and my_aa:
        outs["aa"] = np.zeros((na, nb))
    if plan.same_b is not None and my_bb:
        outs["bb"] = np.zeros((nb, na))

    _, claimed = run_rank_sigma(
        rank,
        plan,
        C_stack,
        outs,
        comm.fetch_add,
        block_columns=bc,
        n_workers=n_workers,
        aa_blocks=aa_blocks,
        bb_blocks=bb_blocks,
        tasks=tasks,
        counters=counters,
        phase_times=phase_times,
        per_task_seconds=payload.get("straggle_seconds", 0.0),
    )

    # ship the owned windows: acc into segments the parent zeroed, which
    # is a store (0.0 + x) element-for-element because the windows are
    # disjoint — then fence with quiet before reporting done
    t0 = time.perf_counter()
    full = (slice(None), slice(None))
    if rank == 0:
        comm.acc("one", full, outs["one"])
    if "aa" in outs:
        for lo, hi in my_aa:
            comm.acc("aa", (slice(None), slice(lo, hi)), outs["aa"][:, lo:hi])
    if "bb" in outs:
        for lo, hi in my_bb:
            comm.acc("bb", (slice(None), slice(lo, hi)), outs["bb"][:, lo:hi])
    for tid in claimed:
        blo, bhi = tasks[tid]
        clo, chi = aa_blocks[blo][0], aa_blocks[bhi - 1][1]
        comm.acc("mix", (slice(None), slice(clo, chi)), outs["mix"][:, clo:chi])
    comm.quiet()  # all owned-window accumulates applied before we report done
    phase_times["wire-ship"] = time.perf_counter() - t0

    busy = time.perf_counter() - t_start
    return {
        "phase_times": phase_times,
        "busy": busy,
        "tasks_done": len(claimed),
        "wire_tx": comm.tx_bytes,
        "wire_rx": comm.rx_bytes,
        **counters.as_dict(),
    }


def worker_main(rank: int | None, spec: SocketCommSpec, payload: dict | None) -> None:
    """Entry point of a worker: dial in, handshake, serve sigma requests.

    Control protocol (engine -> worker): ``("sigma", seq)`` evaluate one
    sigma; ``("stop",)`` exit; ``("plan", payload)`` delivers the plan to
    an external worker.  Worker -> engine: ``("ready", rank, has_plan)``
    after both channels are up, ``("hb", rank)`` heartbeats, then
    ``("done", seq, stats)`` or ``("error", seq, traceback_text)``.
    """
    ctrl = None
    comm = None
    stop_hb = threading.Event()
    try:
        ctrl = connect_with_retry(spec.host, spec.port, timeout=spec.timeout)
        ctrl.send(("hello", "ctrl", rank, spec.token))
        reply = ctrl.recv(timeout=spec.timeout)
        if reply[0] != "ok":
            raise WireError(f"coordinator refused control channel: {reply[1:]}")
        rank = reply[1]
        comm = SocketComm.connect(spec, rank)
        ctrl.send(("ready", rank, payload is not None))
        if payload is None:
            msg = ctrl.recv(timeout=spec.timeout)
            if msg[0] != "plan":
                raise WireError(f"expected plan delivery, got {msg[0]!r}")
            payload = msg[1]
        limiter = _pin_blas_threads(payload.get("blas_threads", 1))  # noqa: F841

        interval = payload.get("heartbeat_interval", spec.heartbeat_interval)

        def _heartbeat():
            while not stop_hb.wait(interval):
                try:
                    ctrl.send(("hb", rank))
                except WireError:
                    return

        hb = threading.Thread(target=_heartbeat, name="repro-sockets-hb", daemon=True)
        hb.start()
        comm.barrier(payload.get("timeout"))
        while True:
            try:
                msg = ctrl.recv(timeout=None)
            except WireError:
                break
            if msg[0] == "stop":
                break
            if msg[0] == "sigma":
                seq = msg[1]
                try:
                    stats = _run_sigma(rank, comm, payload)
                    ctrl.send(("done", seq, stats))
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


def main(argv=None) -> int:
    """CLI for external (second-terminal / remote) workers."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.sockets.worker",
        description="join a sockets-backend coordinator as one sigma worker "
        "(the SigmaPlan arrives over the wire)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--token", required=True)
    parser.add_argument(
        "--rank", type=int, default=None,
        help="explicit rank (default: coordinator assigns join order)",
    )
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    spec = SocketCommSpec(
        host=args.host,
        port=args.port,
        token=args.token,
        n_ranks=0,  # informational client-side; the payload carries n_workers
        timeout=args.timeout,
    )
    worker_main(args.rank, spec, None)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
