"""The retired ``compiled`` lane's name, which still resolves.

The numba gather/scatter lane is gone (it only ever ran its NumPy fallback,
which was the DGEMM sweeps); ``"compiled"`` stays a registry alias of
``DgemmKernel`` so solvers, ``ParallelSigma`` and job specs that carry the
name keep working and keep producing the DGEMM kernel's sigma bit for bit.
"""

import numpy as np
import pytest

from repro.core import FCISolver
from repro.core.kernels import DgemmKernel, kernel_names, make_kernel
from repro.core.plans import SigmaPlan
from repro.parallel import ParallelSigma
from repro.service.jobs import JobSpec
from tests.helpers import make_random_problem, stack_of_vectors

SPACES = [(5, 2, 2, 11), (5, 3, 1, 13), (6, 3, 2, 17), (6, 4, 1, 19), (4, 1, 1, 7)]


@pytest.fixture(scope="module", params=SPACES, ids=lambda s: f"{s[0]}o{s[1]}a{s[2]}b")
def problem(request):
    n, na, nb, seed = request.param
    return make_random_problem(n, na, nb, seed=seed)


class TestRegistry:
    def test_compiled_is_registered(self):
        assert "compiled" in kernel_names()
        plan = SigmaPlan.for_problem(make_random_problem(4, 2, 1, seed=3))
        assert type(make_kernel("compiled", plan)) is DgemmKernel

    def test_solver_accepts_kernel_alias(self, h2):
        solver = FCISolver(h2, "sto-3g", kernel="compiled")
        assert solver.algorithm == "compiled"
        with pytest.raises(ValueError, match="registered sigma kernel"):
            FCISolver(h2, "sto-3g", kernel="nope")

    def test_parallel_accepts_compiled_rejects_moc(self, h2):
        FCISolver(h2, "sto-3g", kernel="compiled", parallel="simulated")
        with pytest.raises(ValueError, match="moc"):
            FCISolver(h2, "sto-3g", algorithm="moc", parallel="simulated")
        with pytest.raises(ValueError, match="kernel"):
            ParallelSigma(
                make_random_problem(4, 2, 1, seed=3), kernel="moc"
            )


class TestBitwiseAgainstDgemm:
    def test_batch_and_single_vector(self, problem):
        plan = SigmaPlan.for_problem(problem)
        ref = DgemmKernel(plan, block_columns=3)
        compiled = make_kernel("compiled", plan, block_columns=3)
        C_stack = stack_of_vectors(problem, 3, seed=101)
        assert np.array_equal(
            compiled.apply_batch(C_stack), ref.apply_batch(C_stack)
        )
        rng = np.random.default_rng(5)
        C = rng.standard_normal(problem.shape)
        assert np.array_equal(compiled.apply(C), ref.apply(C))

    @pytest.mark.parametrize("block_columns", [1, 2, 7])
    def test_every_block_width(self, problem, block_columns):
        """Narrow and ragged blocks exercise the reused scratch."""
        plan = SigmaPlan.for_problem(problem)
        ref = DgemmKernel(plan, block_columns=block_columns)
        compiled = make_kernel("compiled", plan, block_columns=block_columns)
        C_stack = stack_of_vectors(problem, 2, seed=202)
        assert np.array_equal(
            compiled.apply_batch(C_stack), ref.apply_batch(C_stack)
        )

    def test_counters_match_dgemm(self, problem):
        plan = SigmaPlan.for_problem(problem)
        ref = DgemmKernel(plan, block_columns=3)
        compiled = make_kernel("compiled", plan, block_columns=3)
        C_stack = stack_of_vectors(problem, 2, seed=303)
        c_ref, c_new, singles = (k.make_counters() for k in (ref, compiled, ref))
        batch = ref.apply_batch(C_stack, c_ref)
        compiled.apply_batch(C_stack, c_new)
        assert c_ref.as_dict() == c_new.as_dict()
        # and the batch is the loop: bitwise, with the summed counters
        for i in range(2):
            assert np.array_equal(batch[i], ref.apply(C_stack[i], singles))
        assert c_ref.as_dict() == singles.as_dict()


class TestSolverIntegration:
    def test_golden_h2_energy_bitwise(self, h2):
        """kernel="compiled" reproduces the dgemm solve exactly, not closely."""
        ref = FCISolver(h2, "sto-3g").run()
        res = FCISolver(h2, "sto-3g", kernel="compiled").run()
        assert res.energy == ref.energy
        assert res.solve.n_iterations == ref.solve.n_iterations
        assert np.array_equal(res.vector, ref.vector)

    def test_shm_backend_with_compiled_kernel_bitwise(self, problem):
        """ParallelSigma accepts the name; its ranks run the one DGEMM sweep."""
        ref = DgemmKernel(SigmaPlan.for_problem(problem), block_columns=3)
        rng = np.random.default_rng(17)
        C = rng.standard_normal(problem.shape)
        with ParallelSigma(
            problem, backend="shm", kernel="compiled", n_workers=2, block_columns=3
        ) as par:
            assert np.array_equal(par(C), ref.apply(C))


class TestServiceKernelField:
    def test_kernel_is_answer_neutral_in_job_key(self):
        atoms = (("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.4)))
        base = JobSpec(atoms=atoms)
        compiled = JobSpec(atoms=atoms, kernel="compiled")
        dgemm = JobSpec(atoms=atoms, kernel="dgemm")
        assert base.job_key == compiled.job_key == dgemm.job_key
        assert base.space_key == compiled.space_key
        # but algorithm (which admits numerically different kernels) is not
        assert JobSpec(atoms=atoms, algorithm="moc").job_key != base.job_key

    def test_kernel_field_round_trips_and_reaches_solver(self):
        atoms = (("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.4)))
        spec = JobSpec.from_dict({"atoms": [["H", [0, 0, 0]], ["H", [0, 0, 1.4]]],
                                  "kernel": "compiled"})
        assert spec.kernel == "compiled"
        assert spec.to_dict()["kernel"] == "compiled"
        assert spec.solver_kwargs()["kernel"] == "compiled"
        assert "kernel" not in spec.canonical()
        assert spec.job_key == JobSpec(atoms=atoms).job_key

    def test_kernel_field_rejects_non_bitwise_kernels(self):
        atoms = (("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.4)))
        with pytest.raises(ValueError, match="bitwise"):
            JobSpec(atoms=atoms, kernel="moc")
