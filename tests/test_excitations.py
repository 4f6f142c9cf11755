"""Tests for excitation tables against brute-force operator application."""

import numpy as np
import pytest

from repro.core import DoubleAnnihilationTable, SingleExcitationTable, StringSpace
from repro.core.excitations import SingleAnnihilationTable
from repro.core.hamiltonian import apply_annihilation, apply_creation


def brute_epq(space: StringSpace, p: int, q: int) -> np.ndarray:
    """Dense E_pq = a+_p a_q built directly from operator application."""
    M = np.zeros((space.size, space.size))
    for j in range(space.size):
        m1, s1 = apply_annihilation(int(space.masks[j]), q)
        if s1 == 0:
            continue
        m2, s2 = apply_creation(m1, p)
        if s2 == 0:
            continue
        M[space.index(m2), j] = s1 * s2
    return M


class TestSingleExcitationTable:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 1), (5, 5)])
    def test_matches_brute_force(self, n, k):
        space = StringSpace(n, k)
        table = SingleExcitationTable(space)
        for p in range(n):
            for q in range(n):
                assert np.array_equal(
                    table.as_dense_operator(p, q), brute_epq(space, p, q)
                )

    def test_entry_count(self):
        n, k = 6, 3
        table = SingleExcitationTable(StringSpace(n, k))
        # per string: k annihilations x (n - k + 1) creations
        assert table.n_entries == StringSpace(n, k).size * k * (n - k + 1)

    def test_diagonal_entries_present(self):
        table = SingleExcitationTable(StringSpace(4, 2))
        rows = table.rows_for_pq(1, 1)
        # E_11 acts diagonally on strings containing orbital 1
        assert rows.size == 3  # C(3,1) strings contain orbital 1
        assert np.all(table.sign[rows] == 1)
        assert np.array_equal(table.source[rows], table.target[rows])

    def test_commutator_identity(self):
        # [E_pq, E_rs] = delta_qr E_ps - delta_ps E_rq
        space = StringSpace(5, 2)
        table = SingleExcitationTable(space)
        rng = np.random.default_rng(0)
        for _ in range(6):
            p, q, r, s = rng.integers(0, 5, size=4)
            Epq = table.as_dense_operator(p, q)
            Ers = table.as_dense_operator(r, s)
            comm = Epq @ Ers - Ers @ Epq
            expected = np.zeros_like(comm)
            if q == r:
                expected += table.as_dense_operator(p, s)
            if p == s:
                expected -= table.as_dense_operator(r, q)
            assert np.allclose(comm, expected)

    def test_number_operator_sum(self):
        # sum_p E_pp = k * identity
        space = StringSpace(5, 3)
        table = SingleExcitationTable(space)
        total = sum(table.as_dense_operator(p, p) for p in range(5))
        assert np.allclose(total, 3 * np.eye(space.size))


class TestDoubleAnnihilationTable:
    def test_requires_two_electrons(self):
        with pytest.raises(ValueError):
            DoubleAnnihilationTable(StringSpace(4, 1))

    def test_entry_count(self):
        n, k = 6, 3
        table = DoubleAnnihilationTable(StringSpace(n, k))
        assert table.n_entries == StringSpace(n, k).size * k * (k - 1) // 2

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 4)])
    def test_signs_match_operator_application(self, n, k):
        space = StringSpace(n, k)
        table = DoubleAnnihilationTable(space)
        red = table.reduced_space
        for e in range(table.n_entries):
            j = int(table.source[e])
            q, s = int(table.q[e]), int(table.s[e])
            assert q > s
            m1, s1 = apply_annihilation(int(space.masks[j]), q)
            m2, s2 = apply_annihilation(m1, s)
            assert red.index(m2) == int(table.target[e])
            assert s1 * s2 == int(table.sign[e])

    def test_pair_indexing(self):
        table = DoubleAnnihilationTable(StringSpace(5, 2))
        for e in range(table.n_entries):
            q, s = int(table.q[e]), int(table.s[e])
            assert int(table.pair[e]) == q * (q - 1) // 2 + s

    def test_unique_keys(self):
        # (pair, K) determines the source string uniquely - the property the
        # DGEMM gather relies on
        table = DoubleAnnihilationTable(StringSpace(6, 3))
        keys = table.pair * table.reduced_space.size + table.target
        assert len(np.unique(keys)) == table.n_entries

    def test_entries_source_major(self):
        table = DoubleAnnihilationTable(StringSpace(6, 3))
        assert np.all(np.diff(table.source) >= 0)


class TestSingleAnnihilationTable:
    def test_entry_count(self):
        table = SingleAnnihilationTable(StringSpace(5, 2))
        assert table.n_entries == 10 * 2

    def test_signs(self):
        space = StringSpace(5, 3)
        table = SingleAnnihilationTable(space)
        for e in range(table.n_entries):
            m, s = apply_annihilation(int(space.masks[table.source[e]]), int(table.orb[e]))
            assert s == int(table.sign[e])
            assert table.reduced_space.index(m) == int(table.target[e])

    def test_rows_for_orbital_partition(self):
        space = StringSpace(6, 2)
        table = SingleAnnihilationTable(space)
        total = sum(table.rows_for_orbital(p).size for p in range(6))
        assert total == table.n_entries

    def test_requires_one_electron(self):
        with pytest.raises(ValueError):
            SingleAnnihilationTable(StringSpace(4, 0))


class TestTableTruncation:
    """Every table's stored arrays are truncated to exactly n_entries."""

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 1)])
    def test_arrays_match_n_entries(self, n, k):
        space = StringSpace(n, k)
        single = SingleExcitationTable(space)
        for name in ("source", "target", "p", "q", "sign"):
            assert len(getattr(single, name)) == single.n_entries
        ann = SingleAnnihilationTable(space)
        for name in ("source", "target", "orb", "sign"):
            assert len(getattr(ann, name)) == ann.n_entries
        if k >= 2:
            dbl = DoubleAnnihilationTable(space)
            for name in ("source", "target", "q", "s", "sign", "pair"):
                assert len(getattr(dbl, name)) == dbl.n_entries


class TestOrbitalBoundsValidation:
    """Out-of-range orbital indices raise ValueError naming the bound."""

    def test_rows_for_pq_rejects_out_of_range(self):
        table = SingleExcitationTable(StringSpace(5, 2))
        with pytest.raises(ValueError, match="p=5.*0 <= p < 5"):
            table.rows_for_pq(5, 0)
        with pytest.raises(ValueError, match="q=7.*0 <= q < 5"):
            table.rows_for_pq(0, 7)
        with pytest.raises(ValueError, match="p=-1"):
            table.rows_for_pq(-1, 0)
        with pytest.raises(ValueError, match="q=-2"):
            table.rows_for_pq(0, -2)

    def test_rows_for_orbital_rejects_out_of_range(self):
        table = SingleAnnihilationTable(StringSpace(4, 2))
        with pytest.raises(ValueError, match="p=4.*0 <= p < 4"):
            table.rows_for_orbital(4)
        with pytest.raises(ValueError, match="p=-1"):
            table.rows_for_orbital(-1)

    def test_in_range_still_works(self):
        table = SingleExcitationTable(StringSpace(4, 2))
        assert table.rows_for_pq(0, 0).size > 0
        ann = SingleAnnihilationTable(StringSpace(4, 2))
        assert ann.rows_for_orbital(3).size > 0


class TestVectorizedBuilders:
    """The vectorized table builders equal the Python-loop oracles bit for bit,
    including k=0/k=1 edge spaces and p-shell-sized spaces."""

    SPACES = [(3, 0), (3, 1), (3, 2), (3, 3), (4, 2), (5, 3), (6, 1), (6, 5), (7, 4)]

    @pytest.mark.parametrize("n,k", SPACES)
    def test_single_excitation_bit_for_bit(self, n, k):
        from repro.core.excitations import (
            _loop_single_excitation_arrays,
            _single_excitation_arrays,
        )

        space = StringSpace(n, k)
        vec = _single_excitation_arrays(space)
        loop = _loop_single_excitation_arrays(space)
        for a, b in zip(vec, loop):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n,k", [(n, k) for n, k in SPACES if k >= 1])
    def test_single_annihilation_bit_for_bit(self, n, k):
        from repro.core.excitations import (
            _loop_single_annihilation_arrays,
            _single_annihilation_arrays,
        )

        space = StringSpace(n, k)
        red = StringSpace(n, k - 1)
        vec = _single_annihilation_arrays(space, red)
        loop = _loop_single_annihilation_arrays(space, red)
        for a, b in zip(vec, loop):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n,k", [(n, k) for n, k in SPACES if k >= 2])
    def test_double_annihilation_bit_for_bit(self, n, k):
        from repro.core.excitations import (
            _double_annihilation_arrays,
            _loop_double_annihilation_arrays,
        )

        space = StringSpace(n, k)
        red = StringSpace(n, k - 2)
        vec = _double_annihilation_arrays(space, red)
        loop = _loop_double_annihilation_arrays(space, red)
        for a, b in zip(vec, loop):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestLinkIndexTables:
    """The plan's per-string tables against dense-operator oracles.

    The flat plan arrays hold a constant number of entries per string, so
    reshaping them gives pyscf's (n_strings, entries) link-index view.
    """

    def _plan(self, n, na, nb, seed=7):
        from tests.helpers import make_random_problem
        from repro.core.plans import SigmaPlan

        return SigmaPlan.for_problem(make_random_problem(n, na, nb, seed=seed))

    @pytest.mark.parametrize("n,na,nb", [(3, 1, 1), (3, 2, 1), (4, 2, 2), (5, 3, 1)])
    def test_singles_link_against_dense_operator(self, n, na, nb):
        """Row t of the scatter/gather halves lists exactly the nonzeros of
        every E_pq with target t (p-shell-sized spaces), each under its
        packed pair index, which is unique within the row."""
        from repro.core.plans import pair_index

        plan = self._plan(n, na, nb)
        for half, table in (
            (plan.scatter_a, plan.singles_a),
            (plan.gather_b, plan.singles_b),
        ):
            space = table.space
            rows = (space.size, half.per)
            assert np.array_equal(half.target.reshape(rows)[:, 0], np.arange(space.size))
            assert np.array_equal(half.pair, pair_index(half.p, half.q))
            dense = {
                (p, q): table.as_dense_operator(p, q)
                for p in range(n)
                for q in range(n)
            }
            seen = 0
            for t in range(space.size):
                entries = slice(t * half.per, (t + 1) * half.per)
                assert np.unique(half.pair[entries]).size == half.per
                for src, p, q, sgn in zip(half.source[entries], half.p[entries],
                                          half.q[entries], half.sign[entries]):
                    assert dense[(int(p), int(q))][t, int(src)] == sgn
                    seen += 1
            # completeness: every nonzero of every E_pq appears exactly once
            assert seen == sum(np.count_nonzero(M) for M in dense.values())

    @pytest.mark.parametrize("n,na,nb", [(4, 2, 2), (5, 3, 2), (6, 4, 1)])
    def test_same_spin_link_against_annihilation_oracle(self, n, na, nb):
        from repro.core.hamiltonian import apply_annihilation

        plan = self._plan(n, na, nb)
        for space, splan in (
            (plan.space_a, plan.same_a),
            (plan.space_b, plan.same_b),
        ):
            if splan is None:
                continue
            L = splan.open_pairs
            red = StringSpace(n, space.k - 2)
            # row j of the scatter matrix: string j's k(k-1)/2 entries, each
            # naming the slot (K, l) of the N-2 string and pair it came from
            rows = (splan.n_strings, splan.pairs_per_string)
            slots = splan.scatter.indices.reshape(rows)
            signs = splan.scatter.data.reshape(rows)
            for j in range(space.size):
                for slot, sgn in zip(slots[j], signs[j]):
                    tgt, l = divmod(int(slot), L)
                    pair = int(splan.pairs[tgt, l])
                    # invert pair = q(q-1)/2 + s
                    q = 1
                    while (q + 1) * q // 2 <= pair:
                        q += 1
                    s = pair - q * (q - 1) // 2
                    m1, s1 = apply_annihilation(int(space.masks[j]), q)
                    m2, s2 = apply_annihilation(m1, s)
                    assert red.index(m2) == tgt
                    assert s1 * s2 == sgn
                    # the same slot read as a gather: copy string j, same phase
                    assert splan.source[slot] == j
                    assert splan.sign[tgt, l] == sgn


# closed shell (alpha/beta share every table), open shell, one beta electron
# (no beta-beta plan), no beta electron (no beta singles at all)
TABLE_SPACES = [(6, 3, 3), (7, 4, 3), (8, 4, 1), (7, 3, 0)]


def _space_id(space):
    n, na, nb = space
    return f"{na}+{nb}in{n}"


@pytest.mark.parametrize("n,na,nb", TABLE_SPACES, ids=map(_space_id, TABLE_SPACES))
class TestGatherScatterTables:
    """The compressed tables a sweep walks - per string, only the pairs its
    occupation allows: source rows, pairs, signs, the integral blocks cut
    with them and the +-1 CSR scatter matrix - loop-built from the
    excitation tables, slot for slot and entry for entry."""

    _plan = TestLinkIndexTables._plan

    @staticmethod
    def _assert_scatter(S, columns, sign, per, shape):
        """indices/data are the entry arrays in entry order - CSR built
        directly, never sorted or de-duplicated - ``per`` entries per row."""
        assert S.shape == shape
        assert np.array_equal(S.indices, columns)
        assert np.array_equal(S.data, sign)
        assert S.data.dtype == np.float64
        assert np.array_equal(S.indptr, np.arange(shape[0] + 1) * per)
        assert S.indices.dtype == S.indptr.dtype  # no per-product index cast

    def test_mixed_halves(self, n, na, nb):
        from repro.core.plans import pair_index

        plan = self._plan(n, na, nb)
        n_pairs = n * (n + 1) // 2
        for half, table in (
            (plan.scatter_a, plan.singles_a),
            (plan.gather_b, plan.singles_b),
        ):
            nstr, k = table.space.size, table.space.k
            # every string is reached by k (gained) x n-k+1 (lost) singles
            assert half.per == k * (n - k + 1)
            assert half.n_entries == table.n_entries == nstr * half.per
            by_target = [[] for _ in range(nstr)]
            for s, t, p, q, sg in zip(
                table.source, table.target, table.p, table.q, table.sign
            ):
                by_target[int(t)].append((int(s), int(pair_index(p, q)), int(sg)))
            rows = (nstr, half.per)
            source, pair, sign = (
                getattr(half, name).reshape(rows) for name in ("source", "pair", "sign")
            )
            assert half.source.dtype == np.intp  # np.take uses it as given
            for t, entries in enumerate(by_target):
                # row t: target t's entries in table order - whole rows of
                # C^T to copy, the integral columns and their signs
                assert [tuple(e) for e in zip(source[t], pair[t], sign[t])] == entries
                # at most one of E_pq / E_qp reaches t: a copy, not a sum
                assert len({pr for _, pr, _ in entries}) == half.per
            flat = [e for entries in by_target for e in entries]
            self._assert_scatter(
                half.scatter,
                [pr * nstr + s for s, pr, _ in flat],
                [sg for _, _, sg in flat],
                half.per,
                (nstr, n_pairs * nstr),
            )

    def test_same_spin_plans(self, n, na, nb):
        from math import comb

        plan = self._plan(n, na, nb)
        W = plan.w_matrix
        for splan, k, space in (
            (plan.same_a, na, plan.space_a),
            (plan.same_b, nb, plan.space_b),
        ):
            if k < 2:
                assert splan is None
                continue
            table = DoubleAnnihilationTable(space)
            reduced = table.reduced_space
            NK, nstr, L = reduced.size, space.size, comb(n - k + 2, 2)
            assert (splan.n_reduced, splan.open_pairs, splan.n_strings) == (NK, L, nstr)
            assert splan.n_entries == table.n_entries == NK * L
            # slot (K, l): the l-th pair, in ascending packed order, of those
            # the table says can be created on K ...
            by_target = [[] for _ in range(NK)]
            for e in range(table.n_entries):
                by_target[int(table.target[e])].append(
                    (int(table.pair[e]), int(table.source[e]), int(table.sign[e]), e)
                )
            slot_of_entry = np.empty(table.n_entries, dtype=int)
            for K, entries in enumerate(by_target):
                entries.sort()
                # ... which are exactly the pairs (q > s) both empty in K
                free = [o for o in range(n) if not (int(reduced.masks[K]) >> o) & 1]
                assert [pr for pr, *_ in entries] == sorted(
                    q * (q - 1) // 2 + s for q in free for s in free if q > s
                )
                for l, (pr, src, sg, e) in enumerate(entries):
                    assert splan.pairs[K, l] == pr
                    assert splan.source[K * L + l] == src
                    assert splan.sign[K, l] == sg
                    slot_of_entry[e] = K * L + l
            assert splan.source.dtype == np.intp
            # the integral block of K: W over its pairs, the phase of the
            # gathered row on the column that multiplies it
            blocks = splan.w_blocks(W)
            assert blocks.shape == (NK, L, L)
            for K, entries in enumerate(by_target):
                for i, (pr_i, *_) in enumerate(entries):
                    for j, (pr_j, _, sg_j, _) in enumerate(entries):
                        assert blocks[K, i, j] == W[pr_i, pr_j] * sg_j
            # the table lists each source string's k(k-1)/2 entries together
            assert np.array_equal(
                table.source, np.repeat(np.arange(nstr), splan.pairs_per_string)
            )
            self._assert_scatter(
                splan.scatter, slot_of_entry, table.sign, splan.pairs_per_string,
                (nstr, NK * L),
            )

    def test_sweeps_leave_a_read_only_vector_untouched(self, n, na, nb, tmp_path):
        from repro.core.kernels import DgemmKernel
        from repro.core.plans import SigmaPlan
        from tests.helpers import make_random_problem

        problem = make_random_problem(n, na, nb, seed=7)
        plan = SigmaPlan.for_problem(problem)
        C = problem.random_vector(3)
        frozen = C.copy()
        frozen.flags.writeable = False
        np.save(tmp_path / "c.npy", C)
        on_disk = np.load(tmp_path / "c.npy", mmap_mode="r")
        for block_columns in (None, 2):
            kern = DgemmKernel(plan, block_columns=block_columns)
            expected = kern.apply(C)
            for given in (frozen, on_disk):
                assert np.array_equal(kern.apply(given), expected)
        assert np.array_equal(frozen, C) and np.array_equal(on_disk, C)

    def test_nbytes_counts_each_distinct_array_once(self, n, na, nb):
        plan = self._plan(n, na, nb)
        parts = [
            part
            for part in (plan.scatter_a, plan.gather_b, plan.same_a, plan.same_b)
            if part is not None
        ]
        held = [plan.w_matrix, plan.g_matrix]
        for csr in (plan.Ta, plan.Tb, *(part.scatter for part in parts)):
            held += [csr.data, csr.indices, csr.indptr]
        for part in parts:
            held += [v for v in vars(part).values() if isinstance(v, np.ndarray)]
        distinct = {id(a): a for a in held}
        assert plan.nbytes == sum(a.nbytes for a in distinct.values())
        # closed shell shares every alpha/beta table (counted once); open
        # shell holds two halves and up to two same-spin plans
        n_tables = {(6, 3, 3): 2, (7, 4, 3): 4, (8, 4, 1): 3, (7, 3, 0): 3}[n, na, nb]
        assert len({id(part.scatter) for part in parts}) == n_tables
        assert plan.closed_shell == (na == nb)
