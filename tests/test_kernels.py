"""The plan/kernel/operator layer: the batch loop, caching, registry, composition."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import (
    DgemmKernel,
    FCISolver,
    HamiltonianOperator,
    ModelSpacePreconditioner,
    MocKernel,
    SigmaPlan,
    SpinOperator,
    build_dense_hamiltonian,
    davidson_multiroot,
    kernel_names,
    make_kernel,
    sigma_dgemm,
    sigma_moc,
)
from repro.core.kernels import column_blocks, mixed_spin_sigma, same_spin_sigma
from repro.core.vectors import make_store
from repro.parallel import ParallelSigma
from tests.helpers import (
    make_random_problem,
    make_symmetry_problem,
    model_space_guesses,
    stack_of_vectors,
)


@pytest.fixture(scope="module")
def problem():
    # asymmetric space (na != nb, open shell) exercises all four sigma terms
    return make_random_problem(6, 3, 2, seed=7, diag=np.linspace(-2, 2, 6))


@pytest.fixture(scope="module")
def sym_problem():
    return make_symmetry_problem(6, 3, 3, seed=19)


def assert_batch_is_the_loop(kern, C):
    """apply_batch(C) == [apply(C[i])] bitwise, counters == summed singles."""
    batched, singles = kern.make_counters(), kern.make_counters()
    batch = kern.apply_batch(C, batched)
    assert batch.shape == C.shape
    for i in range(C.shape[0]):
        assert np.array_equal(batch[i], kern.apply(C[i], singles))
    assert batched.as_dict() == singles.as_dict()


class TestBatchedBitwise:
    """apply_batch is the vector-at-a-time loop: *bitwise* equal to it, with
    counters equal to the summed single-apply counters."""

    @pytest.mark.parametrize("kernel_cls", [DgemmKernel, MocKernel])
    def test_batch_equals_loop(self, problem, kernel_cls):
        kern = kernel_cls(SigmaPlan.for_problem(problem))
        assert_batch_is_the_loop(kern, stack_of_vectors(problem, 4))

    @pytest.mark.parametrize("kernel_cls", [DgemmKernel, MocKernel])
    def test_batch_equals_loop_closed_shell(self, kernel_cls):
        prob = make_random_problem(5, 2, 2, seed=2)
        kern = kernel_cls(SigmaPlan.for_problem(prob))
        X, Y, Z = stack_of_vectors(prob, 3, seed=10)
        assert_batch_is_the_loop(kern, np.stack([X, Y, Z]))
        # a stack mixing C = C^T, C = -C^T and neither: the DGEMM kernel
        # sweeps the first two by halves, one vector - one choice - at a time
        assert_batch_is_the_loop(kern, np.stack([X + X.T, Y - Y.T, Z]))

    def test_narrow_block_columns(self, problem):
        # block width 1 is the hardest case for segment-sum determinism
        kern = DgemmKernel(SigmaPlan.for_problem(problem), block_columns=1)
        assert_batch_is_the_loop(kern, stack_of_vectors(problem, 3, seed=4))

    def test_kernels_match_wrappers(self, problem):
        # the thin sigma_dgemm / sigma_moc wrappers run the same kernels
        C = problem.random_vector(3)
        plan = SigmaPlan.for_problem(problem)
        assert np.array_equal(
            sigma_dgemm(problem, C), DgemmKernel(plan).apply(C, None)
        )
        assert np.array_equal(sigma_moc(problem, C), MocKernel(plan).apply(C, None))


class TestBatchedCounters:
    @pytest.mark.parametrize("kernel_cls", [DgemmKernel, MocKernel])
    def test_batch_of_k_counts_k_single_applies(self, problem, kernel_cls):
        """No count is shared across the vectors of a batch: every one of a
        batch's counters is k times one apply's (one DGEMM per column block
        per vector; MOC regenerates its same-spin lists per vector)."""
        kern = kernel_cls(SigmaPlan.for_problem(problem))
        C = problem.random_vector(0)
        one, batched = kern.make_counters(), kern.make_counters()
        kern.apply(C, one)
        kern.apply_batch(np.stack([C, 0.5 * C, 0.25 * C]), batched)
        assert all(v > 0 for v in one.as_dict().values())
        assert batched.as_dict() == {k: 3 * v for k, v in one.as_dict().items()}

    def test_operator_accumulates_counters(self, problem):
        op = HamiltonianOperator(problem)
        C = stack_of_vectors(problem, 3)
        batch = op.apply_batch(C)
        assert op.n_calls == 3
        singles = HamiltonianOperator(problem)
        for i in range(3):
            assert np.array_equal(batch[i], singles(C[i]))
        assert op.counters.as_dict() == singles.counters.as_dict()
        assert op.counters.dgemm_calls > 0


class TestScratchReuse:
    """D and E are reused across blocks (and across beta strings): nothing
    of one block, vector or call may leak into the next."""

    BLOCK = 4  # nb = 15 -> blocks of 4, 4, 4 and a ragged 3

    def test_repeat_apply_is_bitwise_stable(self, problem):
        kern = DgemmKernel(SigmaPlan.for_problem(problem), block_columns=self.BLOCK)
        a, b = problem.random_vector(11), problem.random_vector(12)
        first = kern.apply(a)
        kern.apply(b)
        assert np.array_equal(kern.apply(a), first)
        # and the narrow sweep agrees with the one-block sweep to rounding
        wide = DgemmKernel(SigmaPlan.for_problem(problem)).apply(a)
        assert np.allclose(first, wide, rtol=1e-12, atol=1e-12 * np.abs(wide).max())

    def test_block_subsets_into_out_equal_the_full_sweep(self, problem):
        """What the shm ranks do: disjoint subsets of the canonical blocks,
        in any order, written into a caller's buffer."""
        plan = SigmaPlan.for_problem(problem)
        C = problem.random_vector(21)
        na, nb = plan.shape
        blocks = column_blocks(nb, self.BLOCK)
        assert blocks[-1][1] - blocks[-1][0] < self.BLOCK  # ragged last block
        # a ragged block ahead of full ones inside one sweep, then the rest
        subsets = [[blocks[-1], blocks[0]], blocks[1:-1]]

        full = mixed_spin_sigma(plan, C, self.BLOCK, None)
        out = np.zeros_like(C)
        for subset in subsets:
            mixed_spin_sigma(plan, C, self.BLOCK, None, col_blocks=subset, out=out)
        assert np.array_equal(out, full)

        full = same_spin_sigma(plan.same_a, plan.w_matrix, C, self.BLOCK, None)
        out = np.zeros_like(C)
        for subset in subsets:
            same_spin_sigma(
                plan.same_a, plan.w_matrix, C, self.BLOCK, None,
                col_blocks=subset, out=out,
            )
        assert np.array_equal(out, full)

    def test_col_blocks_is_consumed_one_block_at_a_time(self, problem):
        """What a rank's mixed phase does: one sweep (one transposed copy of
        C, one scratch) over a generator that claims work only when asked -
        every earlier block is finished before the next one is requested."""
        plan = SigmaPlan.for_problem(problem)
        C = problem.random_vector(22)
        full = mixed_spin_sigma(plan, C, self.BLOCK, None)
        out = np.zeros_like(C)

        def claim():
            for lo, hi in column_blocks(plan.shape[1], self.BLOCK):
                assert np.array_equal(out[:, :lo], full[:, :lo])
                assert not out[:, lo:].any()
                yield lo, hi

        mixed_spin_sigma(plan, C, self.BLOCK, None, col_blocks=claim(), out=out)
        assert np.array_equal(out, full)
        # the scratch is block_columns wide: a wider block is a named error
        for sweep, args in (
            (mixed_spin_sigma, (plan, C)),
            (same_spin_sigma, (plan.same_a, plan.w_matrix, C)),
        ):
            with pytest.raises(ValueError, match="wider than block_columns"):
                sweep(*args, self.BLOCK, None, col_blocks=[(0, self.BLOCK + 1)])

    def test_batch_of_three_on_ragged_blocks(self, problem):
        kern = DgemmKernel(SigmaPlan.for_problem(problem), block_columns=self.BLOCK)
        assert_batch_is_the_loop(kern, stack_of_vectors(problem, 3, seed=31))


def _edge_spaces(n):
    """(n, n_alpha, n_beta) with each spin's electron count at an edge of the
    compressed layout: an empty spin (no singles at all), k = 1 (no
    same-spin plan), k = 2 (one N-2 string that allows every pair: L =
    C(n, 2)), k = n - 1 (L = 3) and the full shell (L = 1, one string)."""
    edges = [0, 1, 2, n - 1, n]
    return [(n, ka, kb) for ka in edges for kb in edges if ka >= kb]


class TestOccupationCompressedSweeps:
    """Only what a string's occupation allows is gathered, multiplied and
    scattered - at every edge of 'allows', against the dense Hamiltonian."""

    @pytest.mark.parametrize("block_columns", [1, 3, None])
    @pytest.mark.parametrize(
        "n,n_alpha,n_beta", _edge_spaces(5), ids=lambda v: str(v)
    )
    def test_edges_match_dense_hamiltonian(self, n, n_alpha, n_beta, block_columns):
        prob = make_random_problem(n, n_alpha, n_beta, seed=11)
        plan = SigmaPlan.for_problem(prob)
        for splan, k in ((plan.same_a, n_alpha), (plan.same_b, n_beta)):
            assert (splan is None) == (k < 2)
        C = prob.random_vector(8)
        sigma = DgemmKernel(plan, block_columns=block_columns).apply(C)
        assert _close(sigma, _dense_sigma(prob, C))

    @pytest.mark.parametrize("space", [(7, 6, 2), (6, 5, 2), (7, 6, 1), (6, 2, 2)],
                             ids=lambda s: f"{s[0]}o{s[1]}a{s[2]}b")
    def test_ragged_blocks_match_dense_hamiltonian(self, space):
        # 7 x 21, 6 x 15, 7 x 7 and 15 x 15 determinants: width 4 leaves a
        # ragged last block on both axes of each
        prob = make_random_problem(*space, seed=12)
        C = prob.random_vector(9)
        dense = _dense_sigma(prob, C)
        for block_columns in (1, 4, None):
            kern = DgemmKernel(SigmaPlan.for_problem(prob), block_columns=block_columns)
            assert _close(kern.apply(C), dense)

    @pytest.mark.parametrize("space", [(5, 2, 2), (6, 3, 2), (5, 4, 1), (5, 5, 1)],
                             ids=lambda s: f"{s[0]}o{s[1]}a{s[2]}b")
    def test_mixed_term_does_not_depend_on_the_blocking(self, space):
        """Every beta column is its own DGEMM: the mixed term is the same to
        the bit at any width, over any subset of blocks, in any order."""
        prob = make_random_problem(*space, seed=13)
        plan = SigmaPlan.for_problem(prob)
        C = prob.random_vector(10)
        nb = plan.shape[1]
        default = plan.default_block_columns()
        full = mixed_spin_sigma(plan, C, default, None)
        for width in (1, 4, default):
            assert np.array_equal(mixed_spin_sigma(plan, C, width, None), full)
            blocks = column_blocks(nb, width)
            out = np.zeros_like(C)
            for subset in (blocks[1::2][::-1], blocks[0::2]):
                mixed_spin_sigma(plan, C, width, None, col_blocks=subset, out=out)
            assert np.array_equal(out, full)

    @pytest.mark.parametrize("space", [(5, 2, 2), (6, 3, 2), (5, 4, 1), (5, 2, 1)],
                             ids=lambda s: f"{s[0]}o{s[1]}a{s[2]}b")
    def test_row_subset_tasks_assemble_the_mixed_term(self, space):
        """What a simulated rank's task does: fetch only the alpha rows its
        targets connect to, scatter through its own slice of the alpha half
        (sources renumbered into the fetched rows)."""
        from repro.core.plans import MixedSpinHalfPlan

        prob = make_random_problem(*space, seed=14)
        plan = SigmaPlan.for_problem(prob)
        C = prob.random_vector(11)
        sa, na = plan.scatter_a, plan.shape[0]
        full = mixed_spin_sigma(plan, C, 3, None)
        scale = max(np.abs(full).max(), 1.0)
        for start, stop in [(0, 1), (1, na // 2 + 1), (na // 2 + 1, na)]:
            entries = slice(start * sa.per, stop * sa.per)
            rows, local = np.unique(sa.source[entries], return_inverse=True)
            task_half = MixedSpinHalfPlan.from_entries(
                plan.n, rows.size, stop - start, local, sa.target[entries] - start,
                sa.p[entries], sa.q[entries], sa.sign[entries],
            )
            for block_columns in (1, 3, None):
                width = block_columns or plan.default_block_columns()
                part = mixed_spin_sigma(plan, C[rows], width, None, scatter=task_half)
                assert part.shape == (stop - start, plan.shape[1])
                assert np.abs(part - full[start:stop]).max() <= 1e-12 * scale


@contextmanager
def _sigma_lane(lane, problem, block_columns=3):
    """C -> sigma through a serial kernel or two shm worker processes."""
    if lane in ("serial", "moc"):
        cls = DgemmKernel if lane == "serial" else MocKernel
        yield cls(SigmaPlan.for_problem(problem), block_columns=block_columns).apply
    else:
        with ParallelSigma(
            problem, backend="shm", n_workers=2, block_columns=block_columns
        ) as par:
            yield par


def _dense_sigma(problem, C):
    H = build_dense_hamiltonian(problem.mo, problem.space_a, problem.space_b)
    return (H @ C.ravel()).reshape(problem.shape)


def _close(a, b):
    scale = max(np.abs(b).max(), 1.0)
    return np.allclose(a, b, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("lane", ["serial", "moc", "shm"])
class TestPhysicalProperties:
    """Properties of H itself that no single oracle states (ROADMAP 4c).
    Random - unsymmetric - vectors, so it is the general sweep that is
    measured: these are what makes the half sweep for C = +-C^T legitimate
    (``tests/test_vector_symmetry.py``)."""

    def test_adjoint(self, lane, problem):
        x, y = problem.random_vector(41), problem.random_vector(42)
        with _sigma_lane(lane, problem) as sigma:
            hx, hy = sigma(x), sigma(y)
        assert abs(np.vdot(x, hy) - np.vdot(hx, y)) <= 1e-12 * np.linalg.norm(hy)

    def test_spin_exchange_symmetry(self, lane):
        """n_alpha = n_beta: relabelling the spins transposes C and sigma."""
        prob = make_random_problem(5, 2, 2, seed=2)
        C = prob.random_vector(43)
        with _sigma_lane(lane, prob) as sigma:
            assert _close(sigma(np.ascontiguousarray(C.T)), sigma(C).T)

    @pytest.mark.parametrize(
        "space", [(5, 2, 2), (6, 3, 3)], ids=lambda s: f"{s[0]}o{s[1]}a{s[2]}b"
    )
    def test_commutes_with_s_squared(self, lane, space):
        prob = make_random_problem(*space, seed=2)
        s2 = SpinOperator(prob).apply_s2
        C = prob.random_vector(46)
        with _sigma_lane(lane, prob) as sigma:
            out = sigma(C)
            commutator = sigma(s2(C)) - s2(out)
        assert np.linalg.norm(commutator) <= 1e-10 * np.linalg.norm(out)

    @pytest.mark.parametrize(
        "space", [(5, 3, 1), (6, 3, 2), (6, 4, 1)], ids=lambda s: f"{s[0]}o{s[1]}a{s[2]}b"
    )
    def test_open_shell_matches_dense_operator(self, lane, space):
        prob = make_random_problem(*space, seed=5)
        C = prob.random_vector(44)
        with _sigma_lane(lane, prob) as sigma:
            assert _close(sigma(C), _dense_sigma(prob, C))

    @pytest.mark.parametrize(
        "space",
        [(3, 0, 0), (4, 1, 0), (4, 2, 0), (4, 4, 0), (4, 1, 1), (4, 4, 1), (4, 4, 2),
         (4, 4, 4)],
        ids=lambda s: f"{s[0]}o{s[1]}a{s[2]}b",
    )
    def test_empty_single_and_full_spin_shells(self, lane, space):
        """n_alpha or n_beta in {0, 1, n}: an empty gather half, no same-spin
        term, one-string axes, the one-determinant space."""
        prob = make_random_problem(*space, seed=6)
        C = prob.random_vector(45)
        with _sigma_lane(lane, prob) as sigma:
            assert _close(sigma(C), _dense_sigma(prob, C))


class TestPlanCaching:
    def test_for_problem_returns_same_object(self, problem):
        assert SigmaPlan.for_problem(problem) is SigmaPlan.for_problem(problem)
        assert problem.sigma_plan is SigmaPlan.for_problem(problem)

    def test_operators_share_one_plan(self, problem):
        a = HamiltonianOperator(problem, "dgemm")
        b = HamiltonianOperator(problem, "moc")
        assert a.plan is b.plan
        assert a.kernel.plan is b.kernel.plan

    def test_cached_plan_is_freed_with_its_problem(self):
        """No problem <-> plan cycle: dropping the last reference to a
        problem frees it and its cached plan by reference counting alone,
        not at the next full collection."""
        import gc
        import weakref

        problem = make_random_problem(5, 3, 2, seed=4)
        plan = weakref.ref(SigmaPlan.for_problem(problem))
        gc.disable()
        try:
            del problem
            assert plan() is None
        finally:
            gc.enable()

    def test_rebuild_mode_does_not_touch_cache(self, problem):
        cached = SigmaPlan.for_problem(problem)
        rebuilt = SigmaPlan(problem, reuse_problem_cache=False)
        assert rebuilt is not cached
        assert SigmaPlan.for_problem(problem) is cached

    def test_default_block_columns_heuristic(self, problem):
        plan = SigmaPlan.for_problem(problem)
        m = plan.default_block_columns()
        assert 1 <= m <= 64
        # tiny budget clamps down, huge budget clamps at the ceiling
        assert plan.default_block_columns(memory_budget_mb=0) == 1
        assert plan.default_block_columns(memory_budget_mb=10**6) == 64

    def test_default_block_is_cache_sized_not_budget_sized(self):
        """The same-spin D + E of one block - one row per open pair of each
        N-2 string - fit ~12 MiB however large the memory budget, and a block
        is never wider than 64; the budget (less resident vectors) only ever
        narrows it."""
        # alpha strings of FCI(6+6,12) against 12 beta strings: 495 * 28 slots
        plan = SigmaPlan.for_problem(make_random_problem(12, 6, 1, seed=1))
        assert plan.same_b is None
        per_column = 2 * 8 * plan.same_a.n_reduced * plan.same_a.open_pairs
        assert per_column == 2 * 8 * 495 * 28
        m = plan.default_block_columns()
        assert m * per_column <= 12 * 2**20 < (m + 1) * per_column
        assert m == 56
        assert plan.default_block_columns(memory_budget_mb=10**6) == m
        assert plan.default_block_columns(memory_budget_mb=8) < m
        assert plan.default_block_columns(resident_bytes=250 * 2**20) < m
        # 120 * 21 slots: 12 MiB would hold 312 columns of them
        small = SigmaPlan.for_problem(make_random_problem(10, 5, 5, seed=1))
        assert small.default_block_columns() == 64
        narrowed = small.default_block_columns(memory_budget_mb=1)
        assert narrowed * 16 * 120 * 21 <= 2**20 < (narrowed + 1) * 16 * 120 * 21


class TestKernelRegistry:
    def test_names(self):
        names = kernel_names()
        assert "dgemm" in names and "moc" in names

    def test_make_kernel_unknown_lists_registered(self, problem):
        plan = SigmaPlan.for_problem(problem)
        with pytest.raises(ValueError, match="dgemm"):
            make_kernel("spmv", plan)

    def test_solver_validates_at_construction(self, h2):
        with pytest.raises(ValueError, match="registered sigma kernel"):
            FCISolver(h2, algorithm="spmv")
        with pytest.raises(ValueError, match="moc"):
            FCISolver(h2, algorithm="")


def _as_input(kind, C, tmp_path):
    """``C`` in one of the representations ``apply`` must accept."""
    if kind == "float32":
        return C.astype(np.float32)
    if kind == "fortran":
        return np.asfortranarray(C)
    if kind == "nested-list":
        return C.tolist()
    if kind == "memmap":
        given = np.lib.format.open_memmap(
            tmp_path / "c.npy", mode="w+", dtype=np.float64, shape=C.shape
        )
        given[...] = C
        return given
    opts = {"directory": tmp_path} if kind == "mmap" else {}
    store = make_store(kind, C.shape, **opts)
    store.write(C)
    return store


class TestInputCoercion:
    """apply takes any real (na, nb) array-like and coerces it once to
    C-contiguous float64; a wrong shape is a named ValueError, a complex or
    non-numeric dtype a named TypeError."""

    @pytest.mark.parametrize(
        "kind", ["float32", "fortran", "nested-list", "memmap", "dense", "mmap"]
    )
    @pytest.mark.parametrize("name", ["dgemm", "moc"])
    def test_apply_accepts(self, problem, tmp_path, name, kind):
        # float32-representable, so the float32 row loses nothing
        C = problem.random_vector(8).astype(np.float32).astype(np.float64)
        given = _as_input(kind, C, tmp_path)
        kern = make_kernel(name, SigmaPlan.for_problem(problem))
        expected = kern.apply(C)
        if kind in ("dense", "mmap"):  # a store's array enters through the operator
            op = HamiltonianOperator(problem, kern)
            assert np.array_equal(op(given.as_ndarray()), expected)
            given.close()
        else:
            sigma = kern.apply(given)
            assert sigma.dtype == np.float64 and sigma.flags.c_contiguous
            assert np.array_equal(sigma, expected)

    @pytest.mark.parametrize("name", ["dgemm", "moc"])
    def test_apply_rejects_wrong_shape(self, problem, name):
        kern = make_kernel(name, SigmaPlan.for_problem(problem))
        na, nb = problem.shape
        for bad in (np.zeros((nb, na)), np.zeros(na * nb), np.zeros((1, na, nb))):
            with pytest.raises(ValueError, match="C must have shape"):
                kern.apply(bad)

    @pytest.mark.parametrize("dtype", [complex, object, str], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("name", ["dgemm", "moc"])
    def test_apply_rejects_non_real_input(self, problem, name, dtype):
        """A float64 cast would drop an imaginary part with only a warning -
        a silently wrong sigma; non-numeric input gets the same named error."""
        kern = make_kernel(name, SigmaPlan.for_problem(problem))
        with pytest.raises(TypeError, match="C must be real"):
            kern.apply(problem.random_vector(8).astype(dtype))

    @pytest.mark.parametrize("owner", ["dgemm", "moc", "parallel", "operator"])
    def test_apply_batch_rejects_anything_but_a_stack(self, problem, owner):
        plan = SigmaPlan.for_problem(problem)
        target = {
            "dgemm": lambda: DgemmKernel(plan),
            "moc": lambda: MocKernel(plan),
            "parallel": lambda: ParallelSigma(problem),
            "operator": lambda: HamiltonianOperator(problem),
        }[owner]()
        na, nb = problem.shape
        for bad in (np.zeros((na, nb)), np.zeros((2, nb, na)), np.zeros((2, 1, na, nb))):
            with pytest.raises(ValueError, match=rf"C_stack must have shape \(k, {na}, {nb}\)"):
                target.apply_batch(bad)
        assert target.apply_batch(np.zeros((0, na, nb))).shape == (0, na, nb)


class TestOperatorComposition:
    def test_projection_and_penalty_compose(self, sym_problem):
        prob = sym_problem
        spin_op = SpinOperator(prob)
        op = HamiltonianOperator(prob, spin_penalty=0.5, s2_target=0.0)
        C = prob.random_vector(1)
        expected = prob.project_symmetry(
            sigma_dgemm(prob, C) + 0.5 * spin_op.apply_s2(C)
        )
        assert np.array_equal(op(C), expected)
        # the batch loop applies the same decoration per vector
        batch = op.apply_batch(np.stack([C, prob.random_vector(2)]))
        assert np.array_equal(batch[0], expected)

    def test_projection_keeps_result_in_irrep(self, sym_problem):
        op = HamiltonianOperator(sym_problem)
        sigma = op(sym_problem.random_vector(0))
        mask = sym_problem.symmetry_mask
        assert np.all(sigma[~mask] == 0.0)

    def test_plain_operator_is_bare_sigma(self, problem):
        op = HamiltonianOperator(problem)
        C = problem.random_vector(5)
        assert np.array_equal(op(C), sigma_dgemm(problem, C))


class TestMultirootBatching:
    def test_multiroot_streams_one_sigma_at_a_time(self, problem):
        """The block solver calls the operator once per sigma vector and
        spends exactly that many single-vector sweeps."""
        pre = ModelSpacePreconditioner(problem, 12)
        op = HamiltonianOperator(problem)
        guesses = model_space_guesses(problem, pre, 3)
        res = davidson_multiroot(op, guesses, pre, n_roots=3)
        assert res.converged
        assert op.n_calls == res.n_sigma

        single = HamiltonianOperator(problem)
        single(guesses[0])
        per_sigma = single.counters.as_dict()
        assert op.counters.as_dict() == {k: v * res.n_sigma for k, v in per_sigma.items()}

    def test_multiroot_energies_match_loop(self, problem):
        pre = ModelSpacePreconditioner(problem, 12)
        guesses = model_space_guesses(problem, pre, 2)
        op = HamiltonianOperator(problem)
        batched = davidson_multiroot(op, guesses, pre, n_roots=2)
        looped = davidson_multiroot(
            lambda C: sigma_dgemm(problem, C), guesses, pre, n_roots=2
        )
        assert np.allclose(batched.energies, looped.energies, atol=1e-9)
