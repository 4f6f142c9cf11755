"""Unit and integration tests for the sockets (TCP DDI) execution backend.

The cross-substrate semantics live in the conformance harness
(:mod:`tests.backend_conformance`, run by ``test_backend_conformance``);
this file covers what is *specific* to sockets: the wire framing, the
coordinator's handshake policy, heartbeat-based dead-worker detection
(including the chaos lane that SIGKILLs a real worker mid-span), the
external-worker CLI, and the solver integration.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.faults import ChaosConfig, build_backend_plan
from repro.core import FCISolver, HamiltonianOperator, sigma_dgemm
from repro.parallel import ParallelSigma, backend_names
from repro.parallel.backend import SocketsBackend
from repro.parallel.sockets import (
    Channel,
    Coordinator,
    SocketComm,
    SocketSigmaEngine,
    WireError,
    WireTimeout,
    connect_with_retry,
)
from repro.core.plans import SigmaPlan
from tests.backend_conformance import assert_no_new_leaks, leak_snapshot
from tests.helpers import make_random_problem


@pytest.fixture(scope="module", autouse=True)
def no_leaked_backend_resources_module():
    """Module-scoped leak gate: pools are module fixtures, so the /dev/shm
    and live-coordinator scan runs after the whole file, not per test."""
    before = leak_snapshot()
    yield
    assert_no_new_leaks(before)


@pytest.fixture(scope="module")
def problem():
    return make_random_problem(5, 3, 2, seed=41)


@pytest.fixture(scope="module")
def sockets_sigma(problem):
    ps = ParallelSigma(problem, backend="sockets", n_workers=2, block_columns=4)
    yield ps
    ps.close()


def _tcp_pair():
    """A connected loopback (server_side, client_side) Channel pair."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    client = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    server, _ = listener.accept()
    listener.close()
    return Channel(server), Channel(client)


class TestWire:
    """Framing: 8-byte big-endian length prefix + pickled tuple payload."""

    def test_roundtrip_preserves_arrays_and_counts_bytes(self):
        a, b = _tcp_pair()
        try:
            msg = ("acc", "mix", (slice(None), slice(0, 3)), np.arange(6.0))
            sent = a.send(msg)
            got = b.recv(timeout=5.0)
            assert got[0] == "acc" and got[1] == "mix"
            assert got[2] == (slice(None), slice(0, 3))
            assert np.array_equal(got[3], np.arange(6.0))
            assert a.tx_bytes == sent > 8  # header + payload
            assert b.rx_bytes == sent
        finally:
            a.close()
            b.close()

    def test_messages_arrive_in_order(self):
        a, b = _tcp_pair()
        try:
            for i in range(20):
                a.send(("seq", i))
            assert [b.recv(timeout=5.0)[1] for i in range(20)] == list(range(20))
        finally:
            a.close()
            b.close()

    def test_recv_timeout_raises_wire_timeout(self):
        a, b = _tcp_pair()
        try:
            with pytest.raises(WireTimeout):
                b.recv(timeout=0.1)
        finally:
            a.close()
            b.close()

    def test_peer_close_raises_wire_closed(self):
        from repro.parallel.sockets import WireClosed

        a, b = _tcp_pair()
        a.close()
        try:
            with pytest.raises(WireClosed):
                b.recv(timeout=5.0)
        finally:
            b.close()

    def test_oversized_frame_header_is_a_protocol_error(self):
        a, b = _tcp_pair()
        try:
            a.sock.sendall((1 << 37).to_bytes(8, "big"))  # corrupt header
            with pytest.raises(WireError, match="exceeds"):
                b.recv(timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_connect_with_retry_bounded_failure_names_address(self):
        # a port nobody listens on: bounded retry, then a clean diagnostic
        with pytest.raises(WireError, match="127.0.0.1"):
            connect_with_retry("127.0.0.1", 1, attempts=2, delay=0.01)


class TestCoordinatorHandshake:
    def test_bad_token_is_refused(self):
        with Coordinator({"a": (2,)}, n_ranks=1) as co:
            ch = connect_with_retry(co.host, co.port)
            try:
                ch.send(("hello", "data", 0, "wrong-token"))
                reply = ch.recv(timeout=5.0)
                assert reply[0] == "err" and "token" in reply[1]
            finally:
                ch.close()

    def test_rank_out_of_range_is_refused(self):
        with Coordinator({"a": (2,)}, n_ranks=1) as co:
            ch = connect_with_retry(co.host, co.port)
            try:
                ch.send(("hello", "data", 7, co.token))
                reply = ch.recv(timeout=5.0)
                assert reply[0] == "err" and "rank" in reply[1]
            finally:
                ch.close()

    def test_unknown_verb_gets_error_reply(self):
        with Coordinator({"a": (2,)}, n_ranks=1) as co:
            comm = SocketComm.connect(co.spec(), 0)
            try:
                with pytest.raises(WireError, match="unknown verb"):
                    comm._request(("teleport", "a"))
            finally:
                comm.close()

    def test_coordinator_assigns_join_order_ranks(self):
        with Coordinator({"a": (2,)}, n_ranks=2) as co:
            c0 = SocketComm.connect(co.spec(), rank=None)
            c1 = SocketComm.connect(co.spec(), rank=None)
            try:
                assert {c0.rank, c1.rank} == {0, 1}
            finally:
                c0.close()
                c1.close()

    def test_close_is_idempotent(self):
        co = Coordinator({"a": (2,)}, n_ranks=0)
        co.close()
        co.close()


class TestRegistryAndValidation:
    def test_sockets_is_registered(self):
        assert "sockets" in backend_names()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            SocketsBackend(n_workers=-2)

    def test_engine_rejects_unknown_spawn_mode(self, problem):
        plan = SigmaPlan.for_problem(problem)
        with pytest.raises(ValueError, match="spawn"):
            SocketSigmaEngine(plan, n_workers=1, block_columns=3, spawn="teleport")

    def test_rejects_fault_injection(self, problem):
        from repro.faults import FaultInjector, FaultPlan

        with pytest.raises(ValueError, match="simulated"):
            ParallelSigma(
                problem, backend="sockets", faults=FaultInjector(FaultPlan())
            )

    def test_rejects_vector_store(self, problem):
        with pytest.raises(ValueError, match="simulated"):
            ParallelSigma(problem, backend="sockets", vector_store="mmap")

    def test_describe_names_substrate(self):
        backend = SocketsBackend(n_workers=3)
        desc = backend.describe()
        assert desc["backend"] == "sockets"
        assert desc["n_ranks"] == 3
        assert desc["spawn"] == "process"


class TestReport:
    def test_report_measures_real_work_and_wire_bytes(self, problem, sockets_sigma):
        before = sockets_sigma.report.n_calls
        sockets_sigma(problem.random_vector(0))
        report = sockets_sigma.report
        assert report.n_calls == before + 1
        assert report.elapsed > 0.0
        assert report.flops > 0.0
        # sockets moves real bytes: C fetches + shipped owned windows
        assert report.bytes_communicated > 0.0
        for phase in ("alpha-alpha", "beta-beta", "alpha-beta"):
            assert phase in report.phase_times
        assert "wire-ship" in report.phase_times

    def test_one_stat_per_worker(self, problem, sockets_sigma):
        run = sockets_sigma.backend.run_sigma(
            sockets_sigma, problem.random_vector(1)
        )
        assert len(run.stats) == 2
        assert all(s.bytes_sent > 0 and s.bytes_received > 0 for s in run.stats)


class TestLifecycle:
    def test_context_manager_stops_workers(self, problem):
        with ParallelSigma(problem, backend="sockets", n_workers=2) as ps:
            ps(problem.random_vector(0))
            procs = list(ps.backend._engine._procs)
            assert all(p.is_alive() for p in procs)
        assert all(not p.is_alive() for p in procs)

    def test_close_is_idempotent(self, problem):
        ps = ParallelSigma(problem, backend="sockets", n_workers=1)
        ps(problem.random_vector(0))
        ps.close()
        ps.close()

    def test_shape_validation(self, sockets_sigma):
        with pytest.raises(ValueError):
            sockets_sigma(np.zeros((2, 2)))

    def test_sigma_after_close_is_a_clean_error(self, problem):
        ps = ParallelSigma(problem, backend="sockets", n_workers=1)
        engine = ps.backend.engine(ps.plan, ps.block_columns)
        ps.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.sigma(problem.random_vector(0))

    def test_worker_death_between_calls_raises(self, problem):
        with ParallelSigma(problem, backend="sockets", n_workers=2) as ps:
            ps(problem.random_vector(0))
            victim = ps.backend._engine._procs[0]
            victim.terminate()
            victim.join(timeout=5.0)
            with pytest.raises(RuntimeError, match="worker 0"):
                ps(problem.random_vector(1))


class TestChaosKillMidSpan:
    """The ISSUE's fault lane: SIGKILL a real worker while it is inside a
    mixed-spin span; the engine must fail loud, named, and bounded."""

    def test_scenario_composes_to_a_knob_dict(self):
        plan = build_backend_plan(
            ["socket_worker_kill"], ChaosConfig(n_ranks=2), seed=5
        )
        assert plan["backend"] == "sockets"
        assert 0 <= plan["kill_rank"] < 2
        assert plan["straggle_seconds"] > 0.0

    def test_unknown_backend_scenario_lists_registry(self):
        with pytest.raises(ValueError, match="socket_worker_kill"):
            build_backend_plan(["meteor_strike"], ChaosConfig(), seed=0)

    def test_sigkill_mid_span_fails_loud_naming_the_rank(self, problem):
        plan = build_backend_plan(
            ["socket_worker_kill"], ChaosConfig(n_ranks=2), seed=11
        )
        victim_rank = plan["kill_rank"] % 2
        deadline = 30.0
        ps = ParallelSigma(
            problem,
            backend="sockets",
            n_workers=2,
            block_columns=3,
            shm_timeout=60.0,
            # straggle widens every claimed span so the kill lands mid-span;
            # a tight heartbeat keeps detection well under the deadline
            backend_options={
                "straggle_seconds": 0.3,
                "heartbeat_interval": 0.05,
                "heartbeat_misses": 20,
            },
        )
        with ps:
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

    def test_backend_recovers_by_rebuilding_the_pool(self, problem):
        """After a kill, the *backend* (not the dead engine) can serve again:
        run_sigma drops the closed engine and the next call respawns."""
        C = problem.random_vector(2)
        ref = sigma_dgemm(problem, C, block_columns=3)
        with ParallelSigma(
            problem, backend="sockets", n_workers=2, block_columns=3
        ) as ps:
            ps(C)
            victim = ps.backend._engine._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(RuntimeError, match="worker 1"):
                ps(C)
            assert ps.backend._engine is None  # closed engine was dropped
            assert np.array_equal(ps(C), ref)  # fresh pool, same bits


class TestExternalWorkers:
    """The two-terminal story: workers join over the CLI, plan over the wire."""

    def test_cli_workers_join_and_compute_bitwise_sigma(self, problem):
        C = problem.random_vector(3)
        ref = sigma_dgemm(problem, C, block_columns=3)
        plan = SigmaPlan.for_problem(problem)

        # reserve a port for the coordinator so workers know where to dial
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        token = "conformance-test-token"

        engines: list = []
        errors: list = []

        def build_engine():
            try:
                engines.append(
                    SocketSigmaEngine(
                        plan,
                        n_workers=2,
                        block_columns=3,
                        spawn="external",
                        port=port,
                        token=token,
                        timeout=120.0,
                    )
                )
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(exc)

        builder = threading.Thread(target=build_engine)
        builder.start()
        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.parallel.sockets.worker",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    str(port),
                    "--token",
                    token,
                ],
                env={**os.environ, "PYTHONPATH": "src"},
            )
            for _ in range(2)
        ]
        try:
            builder.join(timeout=120.0)
            assert not errors, errors
            assert engines, "engine construction never completed"
            engine = engines[0]
            run = engine.sigma(C)
            assert np.array_equal(run.sigma, ref)
            engine.close()
            for w in workers:
                assert w.wait(timeout=30.0) == 0
        finally:
            for w in workers:
                if w.poll() is None:
                    w.kill()
            for e in engines:
                e.close()


class TestKernelProtocol:
    """ParallelSigma(sockets) is a drop-in SigmaKernel."""

    def test_name(self, sockets_sigma):
        assert sockets_sigma.name == "parallel-sockets"

    def test_apply_is_bitwise_serial(self, problem, sockets_sigma):
        C = problem.random_vector(3)
        counters = sockets_sigma.make_counters()
        out = sockets_sigma.apply(C, counters)
        assert np.array_equal(out, sigma_dgemm(problem, C, block_columns=4))
        assert counters.dgemm_flops > 0
        assert counters.gather_elements > 0

    def test_drops_into_hamiltonian_operator(self, problem, sockets_sigma):
        op = HamiltonianOperator(problem, sockets_sigma)
        C = problem.random_vector(7)
        assert np.array_equal(op(C), sigma_dgemm(problem, C, block_columns=4))


class TestSolverIntegration:
    def test_fci_energy_identical_across_backends(self, h2):
        serial = FCISolver(h2).run()
        sockets = FCISolver(
            h2, parallel={"backend": "sockets", "n_workers": 2}
        ).run()
        assert sockets.energy == serial.energy
        assert sockets.solve.converged

    def test_backend_options_forwarded_through_solver(self, h2):
        res = FCISolver(
            h2,
            parallel={
                "backend": "sockets",
                "n_workers": 1,
                "backend_options": {"heartbeat_interval": 0.1},
            },
        ).run()
        assert res.solve.converged
