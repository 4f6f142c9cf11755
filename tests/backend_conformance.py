"""Reusable backend-conformance harness for the real-process DDI substrates.

One suite, many substrates: :class:`BackendConformanceSuite` states what
*any* execution backend's communication layer must guarantee — the five
DDI verbs' semantics, fetch_add atomicity under contention, barrier and
quiet ordering, the decomposition's disjoint-owned-window invariants, and
the bitwise sigma contract for every worker count — and an *adapter*
binds it to a concrete substrate (POSIX shared memory, a TCP
coordinator).  Registering a new backend for conformance is one adapter
class and one pytest param; the whole suite applies for free.

The verbs are exercised through a :class:`VerbGroup`: the parent-side
endpoint (``ShmComm`` / ``Coordinator`` — deliberately the same method
surface) plus client endpoints opened from worker threads the way real
worker processes would open them (``ShmComm.attach`` /
``SocketComm.connect``).

The engine lanes drive a whole pool through ``ParallelSigma``: the stats
schema, close/closed errors, option validation, and the fault lane
(SIGKILL a worker mid-span, then respawn) — one lifecycle, so one set of
tests, whatever the transport.

Leak checking: :func:`leak_snapshot` / :func:`assert_no_new_leaks`
capture the visible residue a backend can leave behind — ``/dev/shm``
segments and live TCP coordinators — and are asserted around every
conformance test (and, module-scoped, around the per-backend test files).
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.chaos import ChaosEnv, build_backend_plan
from repro.core import sigma_dgemm
from repro.parallel import ParallelSigma, build_sigma_decomposition, make_backend
from repro.parallel.shm.comm import ShmComm
from repro.parallel.sockets import Coordinator, SocketComm
from repro.parallel.sockets.coordinator import LIVE_COORDINATORS
from tests.helpers import make_random_problem

__all__ = [
    "ADAPTERS",
    "BackendConformanceSuite",
    "ShmAdapter",
    "SocketsAdapter",
    "VerbGroup",
    "assert_no_new_leaks",
    "leak_snapshot",
]

# the conformance sigma lane shares one block width with its serial
# reference: bitwise identity is defined at fixed blocking
BLOCK_COLUMNS = 3


# -- leak accounting ----------------------------------------------------------

def leak_snapshot() -> dict:
    """What a backend could leave behind: shm segments, live coordinators."""
    shm = set()
    if os.path.isdir("/dev/shm"):
        shm = set(glob.glob("/dev/shm/repro-*"))
    return {"shm_segments": shm, "coordinators": set(LIVE_COORDINATORS)}


def assert_no_new_leaks(before: dict) -> None:
    after = leak_snapshot()
    leaked_shm = after["shm_segments"] - before["shm_segments"]
    assert not leaked_shm, f"leaked shared-memory segments: {sorted(leaked_shm)}"
    leaked_co = after["coordinators"] - before["coordinators"]
    assert not leaked_co, (
        f"leaked {len(leaked_co)} live TCP coordinator(s) "
        f"(ports {[c.port for c in leaked_co]})"
    )


# -- substrate adapters -------------------------------------------------------

class VerbGroup:
    """A parent verb endpoint plus lazily opened client endpoints."""

    def __init__(self, parent, connect):
        self.parent = parent
        self._connect = connect
        self.clients: list = []

    def connect(self, rank: int | None = None):
        client = self._connect(rank)
        self.clients.append(client)
        return client

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except Exception:
                pass
        self.clients = []
        self.parent.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ShmAdapter:
    """POSIX shared memory: clients attach the parent's named segments."""

    name = "shm"
    kill_scenario = "shm_worker_kill"
    extra_phases = ()

    def open_group(self, arrays: dict, n_clients: int = 0) -> VerbGroup:
        ctx = mp.get_context("spawn")
        comm = ShmComm(ctx, arrays=arrays, n_ranks=n_clients)
        spec = comm.spec()
        return VerbGroup(comm, lambda rank: ShmComm.attach(spec))


class SocketsAdapter:
    """TCP coordinator: clients dial the heap server's data port."""

    name = "sockets"
    kill_scenario = "socket_worker_kill"
    extra_phases = ("wire-ship",)  # owned windows travel: acc + quiet

    def open_group(self, arrays: dict, n_clients: int = 0) -> VerbGroup:
        co = Coordinator(arrays, n_ranks=n_clients)
        spec = co.spec()
        return VerbGroup(co, lambda rank: SocketComm.connect(spec, rank))


ADAPTERS = {"shm": ShmAdapter, "sockets": SocketsAdapter}


# -- the suite ----------------------------------------------------------------

class BackendConformanceSuite:
    """What every real-process execution backend must guarantee.

    Subclass with an ``adapter`` fixture returning a substrate adapter;
    every test then runs identically against that substrate.
    """

    # ---- verb semantics, parent side ----------------------------------------
    def test_get_returns_zeroed_array_and_windows(self, adapter):
        with adapter.open_group({"a": (3, 4), "b": (2,)}) as g:
            full = np.asarray(g.parent.get("a"))
            assert full.shape == (3, 4)
            assert np.all(full == 0.0)
            window = np.asarray(g.parent.get("a", (1, slice(2, 4))))
            assert window.shape == (2,)

    def test_acc_accumulates_windowed(self, adapter):
        with adapter.open_group({"b": (2,)}) as g:
            g.parent.acc("b", slice(None), np.array([1.0, 2.0]))
            g.parent.acc("b", slice(0, 1), np.array([0.5]))
            assert np.array_equal(np.asarray(g.parent.get("b")), [1.5, 2.0])

    def test_fetch_add_returns_old_value_and_resets(self, adapter):
        with adapter.open_group({"a": (1,)}) as g:
            assert g.parent.fetch_add() == 0
            assert g.parent.fetch_add(5) == 1
            assert g.parent.fetch_add() == 6
            g.parent.reset_counter()
            assert g.parent.fetch_add() == 0

    def test_zero_resets_named_arrays(self, adapter):
        with adapter.open_group({"a": (2, 2), "b": (2,)}) as g:
            g.parent.acc("a", None, np.full((2, 2), 3.0))
            g.parent.acc("b", None, np.full((2,), 4.0))
            g.parent.zero("a")
            assert np.all(np.asarray(g.parent.get("a")) == 0.0)
            assert np.all(np.asarray(g.parent.get("b")) == 4.0)

    def test_parent_only_barrier_and_quiet(self, adapter):
        with adapter.open_group({"a": (1,)}) as g:
            g.parent.barrier(timeout=5.0)  # parent is the only party
            g.parent.quiet()

    # ---- verb semantics, over the client path --------------------------------
    def test_client_get_sees_parent_stores(self, adapter):
        with adapter.open_group({"a": (3, 4)}, n_clients=1) as g:
            np.asarray(g.parent.get("a"))[...] = 7.0
            client = g.connect(0)
            got = client.get("a")
            assert np.all(np.asarray(got) == 7.0)
            got = client.get("a", (slice(0, 2), slice(1, 3)))
            assert np.asarray(got).shape == (2, 2)

    def test_client_acc_fenced_by_quiet(self, adapter):
        with adapter.open_group({"a": (4, 4)}, n_clients=2) as g:
            c0, c1 = g.connect(0), g.connect(1)
            # disjoint owned windows, the decomposition's write pattern
            c0.acc("a", (slice(None), slice(0, 2)), np.full((4, 2), 1.0))
            c1.acc("a", (slice(None), slice(2, 4)), np.full((4, 2), 2.0))
            c0.quiet()
            c1.quiet()
            out = np.asarray(g.parent.get("a"))
            assert np.all(out[:, :2] == 1.0) and np.all(out[:, 2:] == 2.0)

    def test_client_acc_error_raises_at_or_before_quiet(self, adapter):
        with adapter.open_group({"a": (2, 2)}, n_clients=1) as g:
            client = g.connect(0)
            with pytest.raises(Exception):
                client.acc("no-such-array", None, np.zeros((2, 2)))
                client.quiet()

    def test_fetch_add_atomic_under_contention(self, adapter):
        n_clients, per_client = 4, 50
        with adapter.open_group({"a": (1,)}, n_clients=n_clients) as g:
            clients = [g.connect(r) for r in range(n_clients)]
            claims: list[list[int]] = [[] for _ in range(n_clients)]
            errors: list = []

            def hammer(idx: int) -> None:
                try:
                    for _ in range(per_client):
                        claims[idx].append(clients[idx].fetch_add())
                except Exception as exc:  # pragma: no cover - diagnostic path
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not errors, errors
            flat = [c for per in claims for c in per]
            # atomicity: every ticket issued exactly once, no gaps, no dupes
            assert sorted(flat) == list(range(n_clients * per_client))
            # per-client monotonicity: the counter never goes backwards
            for per in claims:
                assert per == sorted(per)

    def test_barrier_waits_for_every_party(self, adapter):
        hold = 0.3
        with adapter.open_group({"a": (1,)}, n_clients=1) as g:
            client = g.connect(0)

            def late_arrival() -> None:
                time.sleep(hold)
                client.barrier(10.0)

            t = threading.Thread(target=late_arrival)
            start = time.monotonic()
            t.start()
            g.parent.barrier(timeout=10.0)  # must block until the client joins
            elapsed = time.monotonic() - start
            t.join(timeout=10.0)
            assert elapsed >= hold * 0.8, (
                f"parent cleared the barrier after {elapsed:.3f}s, before the "
                f"other party arrived at {hold:.3f}s"
            )

    def test_quiet_fences_a_burst_of_accs(self, adapter):
        with adapter.open_group({"a": (8, 8)}, n_clients=1) as g:
            client = g.connect(0)
            for i in range(8):
                client.acc("a", (i, slice(None)), np.full((8,), float(i + 1)))
            client.quiet()  # after the fence, every prior acc is applied
            out = np.asarray(g.parent.get("a"))
            for i in range(8):
                assert np.all(out[i] == float(i + 1))

    # ---- decomposition invariants -------------------------------------------
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    def test_owned_windows_disjoint_and_cover(self, adapter, n_workers):
        problem = make_random_problem(5, 3, 2, seed=23)
        from repro.core.plans import SigmaPlan

        plan = SigmaPlan.for_problem(problem)
        decomp = build_sigma_decomposition(plan, n_workers, BLOCK_COLUMNS)
        na, nb = plan.shape

        # same-spin round-robin: every column owned by exactly one rank
        for blocks, n_cols in ((decomp.aa_blocks, nb), (decomp.bb_blocks, na)):
            owned = [
                col
                for rank in range(n_workers)
                for lo, hi in blocks[rank::n_workers]
                for col in range(lo, hi)
            ]
            assert sorted(owned) == list(range(n_cols))
            assert len(owned) == len(set(owned))

        # mixed-spin task spans: disjoint owned windows covering all columns
        spans = [decomp.task_column_span(t) for t in range(len(decomp.tasks))]
        cols = [c for lo, hi in spans for c in range(lo, hi)]
        assert sorted(cols) == list(range(nb))
        assert len(cols) == len(set(cols))

    # ---- the bitwise sigma contract -----------------------------------------
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    def test_sigma_bitwise_identical_to_serial(self, adapter, n_workers):
        problem = make_random_problem(5, 2, 2, seed=29)
        X = problem.random_vector(1)
        with ParallelSigma(
            problem,
            backend=adapter.name,
            n_workers=n_workers,
            block_columns=BLOCK_COLUMNS,
        ) as ps:
            # closed shell: the serial kernel evaluates C = +-C^T by halves,
            # and every rank and the parent must make the same choice
            for label, C in (("X", X), ("X + X^T", X + X.T), ("X - X^T", X - X.T)):
                ref = sigma_dgemm(problem, C, block_columns=BLOCK_COLUMNS)
                out = ps(C)
                assert np.array_equal(out, ref), (
                    f"{adapter.name} sigma({label}) not bitwise-equal to serial "
                    f"sigma_dgemm at n_workers={n_workers}"
                )
                # and stable across repeated evaluations on the same pool
                assert np.array_equal(ps(C), ref)

    # ---- the engine lanes: one lifecycle, every transport ---------------------
    def test_stats_one_entry_per_rank_with_phase_keys(self, adapter):
        problem = make_random_problem(5, 3, 2, seed=41)
        with ParallelSigma(
            problem, backend=adapter.name, n_workers=2, block_columns=BLOCK_COLUMNS
        ) as ps:
            run = ps.backend.run_sigma(ps, problem.random_vector(0))
        assert len(run.stats) == 2
        # rank 0 runs the serial prologue on top of its share of every phase
        for phase in ("one-electron", "alpha-alpha", "beta-beta", "alpha-beta"):
            assert phase in run.stats[0].phase_times
        for stats in run.stats:
            for phase in ("alpha-beta", *adapter.extra_phases):
                assert phase in stats.phase_times
            assert stats.bytes_sent > 0 and stats.bytes_received > 0
            assert stats.flops > 0 and stats.finish_time > 0

    def test_sigma_after_close_is_a_named_error(self, adapter):
        problem = make_random_problem(5, 2, 2, seed=29)
        ps = ParallelSigma(problem, backend=adapter.name, n_workers=1)
        engine = ps.backend.engine(ps.plan, ps.block_columns)
        ps.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.sigma(problem.random_vector(0))

    def test_unknown_backend_option_rejected_at_construction(self, adapter):
        # names the stray option and lists what it could have been
        with pytest.raises(TypeError, match="hartbeat_interval.*straggle_seconds"):
            make_backend(adapter.name, n_workers=1, hartbeat_interval=1)

    def test_sigkill_mid_span_names_the_rank_within_deadline(self, adapter):
        problem = make_random_problem(5, 3, 2, seed=41)
        plan = build_backend_plan([adapter.kill_scenario], ChaosEnv(n_ranks=2), seed=11)
        assert plan["backend"] == adapter.name
        victim_rank = plan["kill_rank"] % 2
        deadline = 30.0
        with ParallelSigma(
            problem,
            backend=adapter.name,
            n_workers=2,
            block_columns=BLOCK_COLUMNS,
            shm_timeout=60.0,
            # straggle widens every claimed span so the kill lands mid-span
            backend_options={"straggle_seconds": 0.3},
        ) as ps:
            ps(problem.random_vector(0))  # warm pool, workers proven healthy
            procs = ps.backend._engine._procs
            with ThreadPoolExecutor(1) as pool:
                future = pool.submit(ps, problem.random_vector(1))
                time.sleep(0.15)  # inside the first straggled span
                os.kill(procs[victim_rank].pid, signal.SIGKILL)
                t0 = time.monotonic()
                with pytest.raises(RuntimeError, match=f"worker {victim_rank}"):
                    future.result(timeout=deadline)
                assert time.monotonic() - t0 < deadline, (
                    "dead-worker detection exceeded the deadline"
                )

    def test_backend_respawns_after_a_kill_to_bitwise_equal_sigma(self, adapter):
        # closed shell, so the fresh pool is also held to the half sweep
        problem = make_random_problem(5, 2, 2, seed=41)
        C = problem.random_vector(2)
        with ParallelSigma(
            problem, backend=adapter.name, n_workers=2, block_columns=BLOCK_COLUMNS
        ) as ps:
            ps(C)
            victim = ps.backend._engine._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(RuntimeError, match="worker 1"):
                ps(C)
            assert ps.backend._engine is None  # the closed engine was dropped
            for V in (C, C + C.T, C - C.T):  # fresh pool, same bits
                ref = sigma_dgemm(problem, V, block_columns=BLOCK_COLUMNS)
                assert np.array_equal(ps(V), ref)
