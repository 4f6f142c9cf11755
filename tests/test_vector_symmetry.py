"""Ms = 0 vector symmetry: sigma of C = eps * C^T by halves, completed by transpose.

Two things are pinned here, each from the outside:

* the *half sweep* itself (``DgemmKernel.apply`` on a closed-shell plan when
  ``transpose_parity`` finds an exact parity) against the dense Hamiltonian,
  its exact operation counts, and the inputs that must *not* take it
  (that sigma commutes with transposition and with S^2 on the general
  path, per kernel and backend - what makes the half sweep legitimate - is
  ``tests/test_kernels.py::TestPhysicalProperties``);
* the *chain* that makes a solve's iterates qualify: the guess is moved
  exactly into its sector, the preconditioners keep new directions there
  bitwise, the operator's spin penalty does not leak out of it - so every
  sigma call of a closed-shell solve costs the half sweep's flop count, and
  nothing else about the solve changes.

"Nothing else changes" is measured against the same solve with the
mechanism switched off (:func:`general_path_only`: no vector is ever found
to have a parity, which is the algorithm before the half sweep existed).
"""

import functools
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import (
    DgemmKernel,
    DiagonalPreconditioner,
    FCISolver,
    HamiltonianOperator,
    ModelSpacePreconditioner,
    SigmaPlan,
    auto_adjusted_solve,
    build_dense_hamiltonian,
)
from repro.core import kernels, model_space, operator
from repro.core.hamiltonian import det_matrix_element
from repro.core.kernels import SigmaCounters, transpose_parity
from repro.molecule import Molecule
from repro.obs import dgemm_mixed_spin_flops, dgemm_same_spin_flops
from tests.helpers import make_random_problem, make_symmetry_problem


def half_flops(plan) -> int:
    """DGEMM flops of one half sweep, from the closed forms in (n, n_alpha,
    n_beta) - never from a run: alpha-alpha, and the whole mixed product
    (its signs are halved, not its shape)."""
    problem = plan.problem
    na, nb = plan.shape
    return int(
        dgemm_mixed_spin_flops(problem.n, problem.n_beta, na * nb)
        + dgemm_same_spin_flops(problem.n, problem.n_alpha, nb)
    )


def general_flops(plan) -> int:
    """... of one general sigma: beta-beta as well."""
    problem = plan.problem
    return half_flops(plan) + int(
        dgemm_same_spin_flops(problem.n, problem.n_beta, plan.shape[0])
    )


@contextmanager
def general_path_only():
    """The algorithm without the half sweep: no vector has a parity."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (kernels, model_space, operator):
            patch.setattr(module, "transpose_parity", lambda plan, C: 0)
        yield


def _with_parity(X: np.ndarray, eps: int) -> np.ndarray:
    return X + eps * X.T


def _is_parity(A: np.ndarray, eps: int) -> bool:
    return np.array_equal(A, eps * A.T)


@functools.lru_cache(maxsize=None)
def _space(n: int, na: int, nb: int):
    problem = make_random_problem(n, na, nb, seed=3)
    return problem, build_dense_hamiltonian(problem.mo, problem.space_a, problem.space_b)


def _dense_rows(problem, rows) -> np.ndarray:
    """Rows of the dense Hamiltonian, element by element like
    ``build_dense_hamiltonian`` (which is quadratic in a 4900-determinant
    space; a handful of rows is not)."""
    ma, mb = problem.space_a.masks, problem.space_b.masks
    na, nb = problem.shape
    H = np.zeros((len(rows), na * nb))
    for i, row in enumerate(rows):
        ia, ib = divmod(int(row), nb)
        for ja in range(na):
            da = bin(int(ma[ia]) ^ int(ma[ja])).count("1")
            for jb in range(nb):
                if da + bin(int(mb[ib]) ^ int(mb[jb])).count("1") <= 4:
                    H[i, ja * nb + jb] = det_matrix_element(
                        problem.mo, int(ma[ia]), int(mb[ib]), int(ma[ja]), int(mb[jb])
                    )
    return H


@pytest.mark.parametrize("eps", [1, -1], ids=["sym", "antisym"])
class TestHalfSweepOracle:
    @pytest.mark.parametrize("block_columns", [1, 4, None])
    @pytest.mark.parametrize(
        "space", [(6, 1, 1), (7, 2, 2), (6, 3, 3)], ids=lambda s: f"{s[1]}+{s[2]}in{s[0]}"
    )
    def test_matches_dense_hamiltonian(self, space, block_columns, eps):
        # (6, 1, 1) has no same-spin plan: the half sweep is T_a and G alone,
        # and costs the general sweep's flops
        problem, H = _space(*space)
        plan = SigmaPlan.for_problem(problem)
        C = _with_parity(problem.random_vector(5), eps)
        assert transpose_parity(plan, C) == eps
        counters = SigmaCounters()
        sigma = DgemmKernel(plan, block_columns=block_columns).apply(C, counters)
        dense = (H @ C.ravel()).reshape(problem.shape)
        assert np.abs(sigma - dense).max() <= 1e-12 * np.abs(dense).max()
        assert _is_parity(sigma, eps)  # bitwise, not to round-off
        assert counters.dgemm_flops == half_flops(plan)

    def test_matches_dense_rows_on_fci_4_4_8(self, eps):
        problem = make_random_problem(8, 4, 4, seed=3)
        plan = SigmaPlan.for_problem(problem)
        C = _with_parity(problem.random_vector(5), eps)
        rows = np.random.default_rng(8).choice(problem.dimension, 10, replace=False)
        dense = _dense_rows(problem, rows) @ C.ravel()
        for block_columns in (1, 4, None):
            counters = SigmaCounters()
            sigma = DgemmKernel(plan, block_columns=block_columns).apply(C, counters)
            assert np.abs(sigma.ravel()[rows] - dense).max() <= 1e-12 * np.abs(dense).max()
            assert _is_parity(sigma, eps)
            assert counters.dgemm_flops == half_flops(plan)

    def test_with_a_point_group_mask(self, eps):
        problem = make_symmetry_problem(6, 3, 3, seed=19)
        H = build_dense_hamiltonian(problem.mo, problem.space_a, problem.space_b)
        C = _with_parity(problem.project_symmetry(problem.random_vector(5)), eps)
        assert np.array_equal(C, problem.project_symmetry(C))  # the mask is symmetric
        for block_columns in (1, 4, None):
            op = HamiltonianOperator(problem, "dgemm", block_columns=block_columns)
            sigma = op(C)
            # random integrals do not respect the irreps: the operator is P H
            dense = problem.project_symmetry((H @ C.ravel()).reshape(problem.shape))
            assert np.abs(sigma - dense).max() <= 1e-12 * np.abs(dense).max()
            assert _is_parity(sigma, eps)
            assert op.counters.dgemm_flops == half_flops(op.plan)

    def test_read_only_and_memmap_inputs(self, eps, tmp_path):
        problem, _ = _space(6, 3, 3)
        kernel = DgemmKernel(SigmaPlan.for_problem(problem), block_columns=4)
        C = _with_parity(problem.random_vector(5), eps)
        expected = kernel.apply(C)
        frozen = C.copy()
        frozen.flags.writeable = False
        mapped = np.lib.format.open_memmap(
            tmp_path / "c.npy", mode="w+", dtype=np.float64, shape=C.shape
        )
        mapped[...] = C
        mapped.flush()
        on_disk = np.load(tmp_path / "c.npy", mmap_mode="r")
        for given in (frozen, on_disk):
            counters = SigmaCounters()
            assert np.array_equal(kernel.apply(given, counters), expected)
            assert counters.dgemm_flops == half_flops(kernel.plan)
            assert np.array_equal(given, C)  # untouched


class TestHalfSweepSelection:
    def test_exact_counters_on_fci_4_4_12(self):
        """The H2O/6-31G space of the benchmark's solves."""
        problem = make_random_problem(12, 4, 4, seed=3)
        kernel = DgemmKernel(SigmaPlan.for_problem(problem))
        X = problem.random_vector(5)
        general, half = SigmaCounters(), SigmaCounters()
        kernel.apply(X, general)
        kernel.apply(X + X.T, half)
        assert general.dgemm_flops == 1_640_687_400 == general_flops(kernel.plan)
        assert half.dgemm_flops == 2 * 78 * 36 * 245_025 + 2 * 45**2 * 66 * 495
        assert half.dgemm_flops == 1_508_373_900 == half_flops(kernel.plan)
        # one DGEMM per beta string; per same-spin sweep one per N-2 string
        # (66) and column block (8 of them, 64 wide)
        assert kernel.block_columns == 64
        assert (general.dgemm_calls, half.dgemm_calls) == (495 + 2 * 528, 495 + 528)
        # the mixed sweep is the general one with halved signs: its gather
        # and scatter do not shrink, only the beta-beta sweep's disappear
        bb = SigmaCounters()
        kernels.same_spin_sigma(
            kernel.plan.same_b, kernel.plan.w_matrix, X, kernel.block_columns, bb
        )
        assert half.gather_elements == general.gather_elements - bb.gather_elements
        assert half.scatter_elements == general.scatter_elements - bb.scatter_elements

    def test_one_ulp_off_symmetric_takes_the_general_path(self):
        problem, H = _space(6, 3, 3)
        plan = SigmaPlan.for_problem(problem)
        X = problem.random_vector(5)
        C = X + X.T
        C[3, 7] = np.nextafter(C[3, 7], np.inf)
        assert transpose_parity(plan, C) == 0
        counters = SigmaCounters()
        sigma = DgemmKernel(plan).apply(C, counters)
        assert counters.dgemm_flops == general_flops(plan)
        with general_path_only():
            assert np.array_equal(sigma, DgemmKernel(plan).apply(C))

    def test_zero_vector_takes_the_general_path(self):
        problem, _ = _space(6, 3, 3)
        plan = SigmaPlan.for_problem(problem)
        C = np.zeros(problem.shape)
        assert transpose_parity(plan, C) == 0
        counters = SigmaCounters()
        assert not DgemmKernel(plan).apply(C, counters).any()
        assert counters.dgemm_flops == general_flops(plan)

    def test_open_shell_square_space_takes_the_general_path(self):
        # C(5,3) = C(5,2): a square CI matrix whose two axes are different
        # string spaces; C = C^T means nothing there
        problem, H = _space(5, 3, 2)
        assert problem.shape == (10, 10)
        plan = SigmaPlan.for_problem(problem)
        assert not plan.closed_shell
        X = problem.random_vector(5)
        C = X + X.T
        assert transpose_parity(plan, C) == 0
        counters = SigmaCounters()
        sigma = DgemmKernel(plan).apply(C, counters)
        dense = (H @ C.ravel()).reshape(problem.shape)
        assert np.abs(sigma - dense).max() <= 1e-12 * np.abs(dense).max()
        assert counters.dgemm_flops == general_flops(plan)

    def test_unsymmetric_vectors_keep_their_bits(self):
        problem, _ = _space(6, 3, 3)
        plan = SigmaPlan.for_problem(problem)
        C = problem.random_vector(5)
        for block_columns in (1, 4, None):
            sigma = DgemmKernel(plan, block_columns=block_columns).apply(C)
            with general_path_only():
                ref = DgemmKernel(plan, block_columns=block_columns).apply(C)
            assert np.array_equal(sigma, ref)


@pytest.mark.parametrize("eps", [1, -1], ids=["sym", "antisym"])
@pytest.mark.parametrize("cls", [DiagonalPreconditioner, ModelSpacePreconditioner])
class TestPreconditionerSector:
    def test_solve_keeps_an_exact_parity_exact(self, cls, eps):
        problem, _ = _space(6, 3, 3)
        pre = cls(problem)
        R = _with_parity(problem.random_vector(9), eps)
        plain = pre._solve(R, -3.0)
        assert not _is_parity(plain, eps)  # diag(H) is symmetric to round-off only
        out = pre.solve(R, -3.0)
        assert _is_parity(out, eps)
        assert np.abs(out - plain).max() <= 1e-12 * np.abs(plain).max()

    def test_unsymmetric_residuals_get_the_plain_bits(self, cls, eps):
        problem, _ = _space(6, 3, 3)
        pre = cls(problem)
        R = problem.random_vector(9)
        out = pre.solve(R, -3.0)
        assert np.array_equal(out, pre._solve(R, -3.0))
        if cls is DiagonalPreconditioner:
            assert np.array_equal(out, R / (problem.diagonal + 3.0))


WATER_CATION = Molecule.from_atoms(
    [
        ("O", (0.0, 0.0, 0.2217)),
        ("H", (0.0, 1.4309, -0.8867)),
        ("H", (0.0, -1.4309, -0.8867)),
    ],
    charge=1,
    multiplicity=2,
    name="H2O+",
)


def _solve(mol, **options):
    """``FCISolver(...).run()`` and the sigma operator it built."""
    solver = FCISolver(mol, "sto-3g", frozen_core="auto", **options)
    built = []
    build = solver.build_operator
    solver.build_operator = lambda problem, **kw: built.append(build(problem, **kw)) or built[-1]
    return solver.run(), built[0]


def _on_the_half_sweep(op) -> bool:
    return op.n_calls > 0 and op.counters.dgemm_flops == op.n_calls * half_flops(op.plan)


def _on_the_general_path(op) -> bool:
    return op.n_calls > 0 and op.counters.dgemm_flops == op.n_calls * general_flops(op.plan)


class TestSolverChain:
    """H2O/STO-3G, FCI(4+4,6): every sigma call of every solve is a half
    sweep, and the solve is otherwise the one the general path makes."""

    @pytest.fixture
    def water_options(self, water_ao, water_scf):
        return dict(ao_integrals=water_ao, scf_result=water_scf)

    def _same_solve_at_half_cost(self, mol, **options):
        result, op = _solve(mol, **options)
        assert result.solve.converged
        assert _on_the_half_sweep(op)
        assert transpose_parity(op.plan, result.vector) == 1  # the singlet's sector
        with general_path_only():
            ref, ref_op = _solve(mol, **options)
        assert _on_the_general_path(ref_op)
        assert result.solve.n_iterations == ref.solve.n_iterations
        assert op.n_calls == ref_op.n_calls
        assert abs(result.energy - ref.energy) <= 1e-10
        return result

    @pytest.mark.parametrize("store", [None, "mmap"])
    @pytest.mark.parametrize("method", ["auto", "olsen-damped", "davidson"])
    def test_every_sigma_call_is_a_half_sweep(self, water, water_options, method, store, tmp_path):
        if store is not None:
            water_options["vector_store"] = {"kind": store, "directory": str(tmp_path)}
        self._same_solve_at_half_cost(water, method=method, **water_options)

    @pytest.mark.parametrize("method", ["auto", "davidson"])
    def test_spin_penalty_does_not_leak_out_of_the_sector(self, water, water_options, method):
        # S^2 C of a bitwise-symmetric C is symmetric to round-off only
        self._same_solve_at_half_cost(water, method=method, spin_penalty=0.5, **water_options)

    @pytest.mark.parametrize("method", ["auto", "olsen-damped", "davidson"])
    def test_checkpoint_restart_stays_in_the_sector(self, water, water_options, method, tmp_path):
        def interrupted_then_resumed(path):
            first, op1 = _solve(water, method=method, checkpoint=path, max_iterations=4,
                                **water_options)
            again, op2 = _solve(water, method=method, checkpoint=path, **water_options)
            assert not first.solve.converged and again.solve.converged
            return again, op1, op2

        again, op1, op2 = interrupted_then_resumed(tmp_path / "half.ckpt.npz")
        assert _on_the_half_sweep(op1) and _on_the_half_sweep(op2)
        with general_path_only():
            ref, ref1, ref2 = interrupted_then_resumed(tmp_path / "general.ckpt.npz")
        assert _on_the_general_path(ref1) and _on_the_general_path(ref2)
        assert (op1.n_calls, op2.n_calls) == (ref1.n_calls, ref2.n_calls)
        assert again.solve.n_iterations == ref.solve.n_iterations
        assert abs(again.energy - ref.energy) <= 1e-10

    def test_worker_ranks_take_the_half_sweep_too(self, water, water_options):
        serial, _ = _solve(water, **water_options)
        shm, op = _solve(water, parallel={"backend": "shm", "n_workers": 2}, **water_options)
        # the flops the ranks counted: half sweeps, on every call
        assert _on_the_half_sweep(op)
        assert shm.solve.energies == serial.solve.energies  # to the bit

    @pytest.mark.parametrize("method", ["auto", "olsen-damped", "davidson"])
    def test_open_shell_solve_is_untouched(self, method):
        result, op = _solve(WATER_CATION, method=method)
        assert result.problem.n_alpha != result.problem.n_beta
        assert result.solve.converged and _on_the_general_path(op)
        with general_path_only():
            ref, _ = _solve(WATER_CATION, method=method)
        assert result.solve.energies == ref.solve.energies  # to the bit

    def test_unsymmetric_guess_runs_the_general_path(self):
        # diagonally dominant enough to behave like a CI Hamiltonian
        problem = make_random_problem(6, 3, 3, seed=42, diag=np.linspace(-12.0, 9.0, 6))
        pre = ModelSpacePreconditioner(problem, 20)
        guess = pre.ground_state_guess()
        guess[0, 1] += 1e-3  # and not guess[1, 0]

        def solve():
            op = HamiltonianOperator(problem, "dgemm")
            return auto_adjusted_solve(op, guess, pre), op

        result, op = solve()
        assert result.converged and _on_the_general_path(op)
        with general_path_only():
            ref, _ = solve()
        assert result.energies == ref.energies  # to the bit
        assert np.array_equal(result.vector, ref.vector)
