"""Unit tests for the shared-memory execution backend and its comm layer."""

import multiprocessing as mp

import numpy as np
import pytest

from repro.core import FCISolver, HamiltonianOperator, sigma_dgemm
from repro.parallel import ParallelSigma, backend_names, make_backend
from repro.parallel.backend import ShmBackend
from repro.parallel.shm import ShmComm
from repro.obs.tracer import ChromeTracer
from tests.backend_conformance import assert_no_new_leaks, leak_snapshot
from tests.helpers import make_random_problem


@pytest.fixture(scope="module", autouse=True)
def no_leaked_backend_resources_module():
    """Module-scoped leak gate: the shm pool is a module fixture, so the
    /dev/shm segment scan runs after the whole file tears down."""
    before = leak_snapshot()
    yield
    assert_no_new_leaks(before)


@pytest.fixture(scope="module")
def problem():
    return make_random_problem(5, 3, 2, seed=41)


@pytest.fixture(scope="module")
def shm_sigma(problem):
    ps = ParallelSigma(problem, backend="shm", n_workers=2, block_columns=4)
    yield ps
    ps.close()


class TestShmComm:
    """The five DDI/SHMEM verbs on real shared memory, parent-side."""

    @pytest.fixture()
    def comm(self):
        # n_ranks=0: the barrier has only the parent as a party, so every
        # verb can be exercised single-process
        ctx = mp.get_context("spawn")
        comm = ShmComm(ctx, arrays={"a": (3, 4), "b": (2,)}, n_ranks=0)
        yield comm
        comm.close()

    def test_get_returns_writable_zeroed_window(self, comm):
        view = comm.get("a")
        assert view.shape == (3, 4)
        assert np.all(view == 0.0)
        view[1, 2] = 7.0  # a live window, not a copy
        assert comm.get("a", (1, slice(2, 3)))[0] == 7.0

    def test_acc_accumulates(self, comm):
        comm.acc("b", slice(None), np.array([1.0, 2.0]))
        comm.acc("b", slice(0, 1), np.array([0.5]))
        assert np.array_equal(comm.get("b"), [1.5, 2.0])

    def test_fetch_add_returns_old_value(self, comm):
        assert comm.fetch_add() == 0
        assert comm.fetch_add(5) == 1
        assert comm.fetch_add() == 6
        comm.reset_counter()
        assert comm.fetch_add() == 0

    def test_barrier_and_quiet(self, comm):
        comm.barrier(timeout=1.0)  # parent is the only party
        comm.quiet()  # documented no-op

    def test_zero(self, comm):
        comm.get("a")[...] = 3.0
        comm.zero("a")
        assert np.all(comm.get("a") == 0.0)

    def test_attach_maps_same_segments(self, comm):
        comm.get("a")[0, 0] = 42.0
        attached = ShmComm.attach(comm.spec())
        try:
            assert attached.get("a")[0, 0] == 42.0
            attached.get("a")[0, 1] = 7.0
            assert comm.get("a")[0, 1] == 7.0  # same physical memory
        finally:
            attached.close()

    def test_close_is_idempotent(self):
        ctx = mp.get_context("spawn")
        comm = ShmComm(ctx, arrays={"a": (2, 2)}, n_ranks=0)
        comm.close()
        comm.close()


class TestBackendRegistry:
    def test_names(self):
        names = backend_names()
        assert "simulated" in names and "shm" in names

    def test_unknown_backend_lists_registry(self):
        with pytest.raises(ValueError, match="simulated"):
            make_backend("mpi")

    def test_simulated_rejects_unknown_option(self):
        with pytest.raises(TypeError, match="n_workers.*config"):
            make_backend("simulated", n_workers=2)

    def test_shm_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            ShmBackend(n_workers=-1)

    def test_parallel_sigma_rejects_unknown_backend(self, problem):
        with pytest.raises(ValueError, match="registered backends"):
            ParallelSigma(problem, backend="gpu")


class TestShmValidation:
    """Simulated-only features must be refused, not silently ignored."""

    def test_rejects_fault_injection(self, problem):
        from repro.faults import FaultInjector, FaultPlan

        faults = FaultInjector(FaultPlan())
        with pytest.raises(ValueError, match="simulated"):
            ParallelSigma(problem, backend="shm", faults=faults)

    def test_rejects_resilient_mode(self, problem):
        with pytest.raises(ValueError, match="simulated"):
            ParallelSigma(problem, backend="shm", resilient=True)

    def test_rejects_virtual_time_tracer(self, problem):
        with pytest.raises(ValueError, match="tracing"):
            ParallelSigma(problem, backend="shm", tracer=ChromeTracer())

    def test_solver_rejects_parallel_moc(self, h2):
        with pytest.raises(ValueError, match="DGEMM"):
            FCISolver(h2, algorithm="moc", parallel="shm")

    def test_solver_rejects_unknown_parallel_backend(self, h2):
        with pytest.raises(ValueError, match="backend"):
            FCISolver(h2, parallel="cluster")


class TestShmReport:
    def test_report_measures_real_work(self, problem, shm_sigma):
        before = shm_sigma.report.n_calls
        shm_sigma(problem.random_vector(0))
        report = shm_sigma.report
        assert report.n_calls == before + 1
        assert report.elapsed > 0.0
        assert report.flops > 0.0
        assert report.bytes_communicated > 0.0
        for phase in ("one-electron", "alpha-alpha", "beta-beta", "alpha-beta"):
            assert phase in report.phase_times
        assert report.gflops_rate() > 0.0

    def test_one_stat_per_worker(self, problem, shm_sigma):
        run = shm_sigma.backend.run_sigma(shm_sigma, problem.random_vector(1))
        assert len(run.stats) == 2
        assert all(s.finish_time >= 0.0 for s in run.stats)


class TestShmLifecycle:
    def test_context_manager_stops_workers(self, problem):
        with ParallelSigma(problem, backend="shm", n_workers=2) as ps:
            ps(problem.random_vector(0))
            procs = list(ps.backend._engine._procs)
            assert all(p.is_alive() for p in procs)
        assert all(not p.is_alive() for p in procs)

    def test_worker_death_raises(self, problem):
        with ParallelSigma(problem, backend="shm", n_workers=2) as ps:
            ps(problem.random_vector(0))
            ps.backend._engine._procs[0].terminate()
            ps.backend._engine._procs[0].join(timeout=5.0)
            with pytest.raises(RuntimeError, match="worker 0"):
                ps(problem.random_vector(1))

    def test_close_is_idempotent(self, problem):
        ps = ParallelSigma(problem, backend="shm", n_workers=1)
        ps(problem.random_vector(0))
        ps.close()
        ps.close()

    def test_shape_validation(self, shm_sigma):
        with pytest.raises(ValueError):
            shm_sigma(np.zeros((2, 2)))

    @pytest.mark.parametrize("dtype", [complex, object, str], ids=lambda d: d.__name__)
    def test_rejects_non_real_input(self, problem, shm_sigma, dtype):
        """The heap is float64: a complex C must not lose its imaginary part
        on the way in."""
        with pytest.raises(TypeError, match="C must be real"):
            shm_sigma(problem.random_vector(1).astype(dtype))

    def test_accepts_any_real_array_like(self, problem, shm_sigma):
        """__call__ coerces through the serial kernels' one function."""
        C = problem.random_vector(2)
        expected = sigma_dgemm(problem, C, block_columns=4)
        assert np.array_equal(shm_sigma(C.tolist()), expected)
        assert np.array_equal(shm_sigma(np.asfortranarray(C)), expected)


class TestKernelProtocol:
    """ParallelSigma(shm) is a drop-in SigmaKernel."""

    def test_name(self, shm_sigma):
        assert shm_sigma.name == "parallel-shm"

    def test_apply_is_bitwise_serial(self, problem, shm_sigma):
        C = problem.random_vector(3)
        counters = shm_sigma.make_counters()
        out = shm_sigma.apply(C, counters)
        assert np.array_equal(out, sigma_dgemm(problem, C, block_columns=4))
        assert counters.dgemm_flops > 0
        assert counters.gather_elements > 0

    def test_apply_batch_matches_loop(self, problem, shm_sigma):
        C = np.stack([problem.random_vector(s) for s in (4, 5, 6)])
        batched, singles = shm_sigma.make_counters(), shm_sigma.make_counters()
        batch = shm_sigma.apply_batch(C, batched)
        for i in range(3):
            assert np.array_equal(batch[i], shm_sigma.apply(C[i], singles))
        assert batched.as_dict() == singles.as_dict()

    def test_drops_into_hamiltonian_operator(self, problem, shm_sigma):
        op = HamiltonianOperator(problem, shm_sigma)
        C = problem.random_vector(7)
        assert np.array_equal(op(C), sigma_dgemm(problem, C, block_columns=4))


class TestSolverIntegration:
    def test_fci_energy_identical_across_backends(self, h2):
        serial = FCISolver(h2).run()
        shm = FCISolver(h2, parallel={"backend": "shm", "n_workers": 2}).run()
        assert shm.energy == serial.energy
        assert shm.solve.converged

    def test_parallel_dict_options_forwarded(self, h2):
        res = FCISolver(h2, parallel={"backend": "shm", "n_workers": 1}).run()
        assert res.solve.converged
