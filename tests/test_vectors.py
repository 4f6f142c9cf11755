"""Storage-layer tests: store conformance, typed checkpoints, CDFCI.

Three groups:

* a **conformance suite** run against every registered CI-vector store
  backend — the protocol contract (blocks, axpy/dot/norm, nonzeros,
  resident-byte semantics) that lets solvers stay backend-agnostic;
* **store-typed checkpoints** — a dense restart refuses an out-of-core
  checkpoint instead of silently loading it, and the mmap sidecar
  round-trips as a read-only memory map;
* **differential solves** — mmap-backed Davidson under a tiny block
  budget matches the dense run to 1e-10, and CDFCI matches dense FCI on
  two molecules to 1e-6 while every sweep energy respects the
  variational bound.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    Checkpointer,
    FCISolver,
    HamiltonianOperator,
    ModelSpacePreconditioner,
    davidson_multiroot,
)
from repro.core.checkpoint import CheckpointState
from repro.core.solver import _METHODS, method_names, register_method
from repro.core.vectors import (
    CIVectorStore,
    DenseStore,
    MmapStore,
    SparseStore,
    as_dense_array,
    make_store,
    publish_store_metrics,
    store_kinds,
)
from repro.obs import Telemetry
from tests.helpers import make_random_problem, model_space_guesses

SHAPE = (6, 4)
KINDS = ("dense", "mmap", "sparse")


def _make(kind, tmp_path):
    if kind == "mmap":
        return make_store(kind, SHAPE, directory=str(tmp_path))
    return make_store(kind, SHAPE)


def _payload(seed=3):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(SHAPE)
    arr[rng.random(SHAPE) < 0.4] = 0.0  # leave genuine zeros for sparse paths
    return arr


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_all_backends_registered(self):
        assert store_kinds() == ("dense", "mmap", "sparse")

    def test_unknown_kind_lists_registry(self):
        with pytest.raises(ValueError, match="dense, mmap, sparse"):
            make_store("hdf5", SHAPE)

    def test_make_store_constructs_the_named_class(self, tmp_path):
        assert isinstance(make_store("dense", SHAPE), DenseStore)
        assert isinstance(make_store("mmap", SHAPE, directory=tmp_path), MmapStore)
        assert isinstance(make_store("sparse", SHAPE), SparseStore)


# -- protocol conformance (every backend) -------------------------------------


@pytest.mark.parametrize("kind", KINDS)
class TestStoreConformance:
    def test_satisfies_protocol(self, kind, tmp_path):
        store = _make(kind, tmp_path)
        assert isinstance(store, CIVectorStore)
        assert store.kind == kind
        assert store.shape == SHAPE
        store.close()

    def test_write_as_ndarray_roundtrip(self, kind, tmp_path):
        store = _make(kind, tmp_path)
        arr = _payload()
        store.write(arr)
        assert np.array_equal(np.asarray(store.as_ndarray()).reshape(SHAPE), arr)
        assert np.array_equal(as_dense_array(store).reshape(SHAPE), arr)
        store.close()

    def test_block_views_tile_the_vector(self, kind, tmp_path):
        store = _make(kind, tmp_path)
        arr = _payload()
        store.write(arr)
        tiled = np.hstack(
            [store.to_dense_block(lo, min(lo + 3, SHAPE[1])) for lo in range(0, SHAPE[1], 3)]
        )
        assert np.array_equal(tiled, arr)
        store.close()

    def test_axpy_dot_norm_match_numpy(self, kind, tmp_path):
        a, b = _payload(1), _payload(2)
        store = _make(kind, tmp_path)
        other = _make(kind, tmp_path)
        store.write(a)
        other.write(b)
        assert store.dot(other) == pytest.approx(np.vdot(a, b), abs=1e-14)
        assert store.dot(b) == pytest.approx(np.vdot(a, b), abs=1e-14)
        assert store.norm() == pytest.approx(np.linalg.norm(a), abs=1e-14)
        store.axpy(-0.5, other)
        assert np.allclose(
            np.asarray(store.as_ndarray()).reshape(SHAPE), a - 0.5 * b, atol=1e-15
        )
        store.close()
        other.close()

    def test_iter_nonzero_matches_dense_nonzeros(self, kind, tmp_path):
        arr = _payload()
        store = _make(kind, tmp_path)
        store.write(arr)
        got = dict(store.iter_nonzero())
        want = {
            (int(i), int(j)): arr[i, j] for i, j in zip(*np.nonzero(arr))
        }
        assert got == want
        store.close()

    def test_allocate_gives_fresh_zeroed_sibling(self, kind, tmp_path):
        store = _make(kind, tmp_path)
        store.write(_payload())
        fresh = store.allocate()
        assert fresh.shape == store.shape
        assert fresh.norm() == 0.0
        fresh.close()
        store.close()

    def test_flush_and_close_are_safe(self, kind, tmp_path):
        store = _make(kind, tmp_path)
        store.write(_payload())
        store.flush()
        store.close()


# -- backend-specific semantics ----------------------------------------------


class TestResidentBytes:
    def test_dense_pins_everything(self):
        store = make_store("dense", SHAPE)
        assert store.nbytes == 8 * SHAPE[0] * SHAPE[1]
        assert store.resident_nbytes == store.nbytes

    def test_mmap_pins_nothing(self, tmp_path):
        store = make_store("mmap", SHAPE, directory=tmp_path)
        assert store.nbytes == 8 * SHAPE[0] * SHAPE[1]
        assert store.resident_nbytes == 0
        store.close()

    def test_sparse_scales_with_occupancy(self):
        store = make_store("sparse", SHAPE)
        empty = store.resident_nbytes
        store.scatter_add([0, 5, 9], [1.0, 2.0, 3.0])
        assert store.resident_nbytes > empty
        assert store.resident_nbytes == store.nbytes

    def test_metrics_report_resident_vs_total(self, tmp_path):
        tele = Telemetry()
        stores = [
            make_store("mmap", SHAPE, directory=tmp_path),
            make_store("dense", SHAPE),
        ]
        publish_store_metrics(tele.registry, stores)
        assert tele.registry.get("vectors.count").value == 2.0
        assert tele.registry.get("vectors.total_bytes").value == float(
            2 * 8 * SHAPE[0] * SHAPE[1]
        )
        # only the dense store's bytes are pinned
        assert tele.registry.get("vectors.resident_bytes").value == float(
            8 * SHAPE[0] * SHAPE[1]
        )
        stores[0].close()


class TestMmapStore:
    def test_payload_lives_in_a_file(self, tmp_path):
        store = make_store("mmap", SHAPE, directory=tmp_path)
        arr = _payload()
        store.write(arr)
        store.flush()
        assert np.array_equal(np.load(store.path), arr)

    def test_owned_file_removed_on_close(self, tmp_path):
        store = make_store("mmap", SHAPE, directory=tmp_path)
        path = store.path
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)

    def test_reopen_existing_path(self, tmp_path):
        arr = _payload()
        first = make_store("mmap", SHAPE, directory=tmp_path)
        first.write(arr)
        first.flush()
        second = MmapStore(SHAPE, path=first.path, mode="r+")
        assert np.array_equal(np.asarray(second.as_ndarray()), arr)
        second.close()  # not the owner: file survives
        assert os.path.exists(first.path)
        first.close()

    def test_reopen_rejects_wrong_shape(self, tmp_path):
        first = make_store("mmap", SHAPE, directory=tmp_path)
        with pytest.raises(ValueError, match="holds shape"):
            MmapStore((3, 3), path=first.path, mode="r+")
        first.close()


class TestSparseStore:
    def test_scatter_add_accumulates_duplicates(self):
        store = make_store("sparse", SHAPE)
        store.scatter_add([4, 4, 7], [1.0, 2.0, 5.0])
        assert store.get(4) == 3.0
        assert store.get(7) == 5.0
        assert store.get(0) == 0.0
        assert store.nnz == 2

    def test_get_many_returns_zero_for_absent_keys(self):
        store = make_store("sparse", SHAPE)
        store.set(3, 1.5)
        assert np.array_equal(store.get_many([3, 11, 3]), [1.5, 0.0, 1.5])

    def test_sibling_shares_slot_order(self):
        c = make_store("sparse", SHAPE)
        b = c.sibling()
        c.scatter_add([9, 2, 17], [1.0, 2.0, 3.0])
        b.scatter_add([2, 9], [20.0, 10.0])
        assert np.array_equal(c.keys, b.keys)  # one index, one slot order
        assert np.array_equal(b.values, [10.0, 20.0, 0.0])

    def test_compact_keeps_topk_and_reindexes_siblings(self):
        c = make_store("sparse", SHAPE, capacity=2)
        b = c.sibling()
        c.scatter_add([1, 2, 3, 4], [0.1, -5.0, 0.2, 4.0])
        b.scatter_add([1, 2, 3, 4], [10.0, 20.0, 30.0, 40.0])
        dropped = c.compact()
        assert dropped == 2
        assert set(c.keys.tolist()) == {2, 4}
        assert sorted(b.values.tolist()) == [20.0, 40.0]
        assert b.get(1) == 0.0  # dropped in the sibling too

    def test_compact_is_deterministic_under_ties(self):
        runs = []
        for _ in range(2):
            store = make_store("sparse", SHAPE)
            store.scatter_add([5, 1, 9, 3], [1.0, 1.0, 1.0, 1.0])
            store.compact(2)
            runs.append(store.keys.tolist())
        assert runs[0] == runs[1]

    def test_compact_slots_honors_explicit_ranking(self):
        store = make_store("sparse", SHAPE)
        store.scatter_add([1, 2, 3], [9.0, 1.0, 5.0])
        store.compact_slots(np.array([0, 2]))
        assert store.keys.tolist() == [1, 3]
        assert store.values.tolist() == [9.0, 5.0]

    def test_fill_only_clears(self):
        store = make_store("sparse", SHAPE)
        store.set(5, 2.0)
        store.fill(0.0)
        assert store.norm() == 0.0
        with pytest.raises(ValueError, match="cleared"):
            store.fill(1.0)

    def test_dot_across_representations(self):
        a, b = _payload(4), _payload(5)
        sa = make_store("sparse", SHAPE)
        sa.write(a)
        aligned = sa.sibling()
        aligned.axpy(1.0, b)
        foreign = make_store("sparse", SHAPE)
        foreign.write(b)
        want = float(np.vdot(a, b))
        assert sa.dot(aligned) == pytest.approx(want, abs=1e-13)
        assert sa.dot(foreign) == pytest.approx(want, abs=1e-13)
        assert sa.dot(b) == pytest.approx(want, abs=1e-13)


# -- store-typed checkpoints --------------------------------------------------


def _state(vec, store_kind):
    return CheckpointState(
        method="auto",
        iteration=4,
        n_sigma=4,
        vector=vec,
        meta={"prev_e": -1.0},
        energies=[-1.0],
        residual_norms=[0.1],
        store_kind=store_kind,
    )


class TestStoreTypedCheckpoints:
    def test_peek_reports_store_kind(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz")
        cp.save(_state(np.ones((3, 3)), "mmap"))
        assert cp.peek()["store"] == "mmap"

    def test_mmap_checkpoint_uses_sidecar_and_maps_on_load(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz")
        vec = _payload()
        cp.save(_state(vec, "mmap"))
        assert os.path.exists(cp.sidecar_path)
        state = cp.load()
        assert isinstance(state.vector, np.memmap)
        assert not state.vector.flags.writeable
        assert np.array_equal(np.asarray(state.vector), vec)

    def test_dense_restart_refuses_mmap_checkpoint(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz", telemetry=Telemetry())
        cp.save(_state(np.ones((3, 3)), "mmap"))
        assert cp.restore("auto", store_kind="dense") is None
        reg = cp.telemetry.registry
        assert reg.get("solver.checkpoint.store_mismatch").value == 1.0

    def test_matching_store_kind_restores(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz")
        vec = _payload()
        cp.save(_state(vec, "mmap"))
        state = cp.restore("auto", store_kind="mmap")
        assert state is not None and state.iteration == 4
        cp2 = Checkpointer(tmp_path / "ck2.npz")
        cp2.save(_state(vec, "dense"))
        assert cp2.restore("auto", store_kind="dense") is not None

    def test_extra_arrays_roundtrip_with_crc(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz")
        state = _state(np.ones(4), "sparse")
        state.arrays = {"keys": np.array([3, 1, 4]), "c": np.array([0.1, 0.2, 0.3])}
        cp.save(state)
        back = cp.load()
        assert np.array_equal(back.arrays["keys"], [3, 1, 4])
        assert np.array_equal(back.arrays["c"], [0.1, 0.2, 0.3])


# -- the eigensolver method registry ------------------------------------------


class TestMethodRegistry:
    def test_builtin_methods_registered(self):
        assert set(method_names()) >= {"auto", "davidson", "olsen", "olsen-damped", "cdfci"}

    def test_register_method_extends_the_driver(self, h2):
        @register_method("probe")
        def _probe(solver, problem, sigma_fn, guess, precond, store, kwargs):
            return _METHODS["davidson"](
                solver, problem, sigma_fn, guess, precond, store, kwargs
            )

        try:
            assert "probe" in method_names()
            res = FCISolver(h2, "sto-3g", method="probe").run()
            assert res.solve.converged
        finally:
            del _METHODS["probe"]

    def test_unknown_method_rejected_with_registry_listing(self, h2):
        with pytest.raises(ValueError, match="registered eigensolver"):
            FCISolver(h2, "sto-3g", method="lanczos")

    def test_store_kind_validation(self, h2):
        with pytest.raises(ValueError, match="store kind"):
            FCISolver(h2, "sto-3g", vector_store="hdf5")
        with pytest.raises(ValueError, match="sparse stores back the cdfci"):
            FCISolver(h2, "sto-3g", vector_store="sparse")
        with pytest.raises(ValueError, match="cdfci solves on sparse"):
            FCISolver(h2, "sto-3g", method="cdfci", vector_store="mmap")
        with pytest.raises(ValueError, match="spin penalty"):
            FCISolver(h2, "sto-3g", method="cdfci", spin_penalty=0.4)
        with pytest.raises(ValueError, match="ParallelSigma"):
            FCISolver(h2, "sto-3g", method="cdfci", parallel="simulated")


# -- differential solves ------------------------------------------------------


@pytest.fixture(scope="module")
def dense_reference(h2, heh_plus):
    return {
        "H2": FCISolver(h2, "sto-3g", method="davidson").run(),
        "HeH+": FCISolver(heh_plus, "sto-3g", method="davidson").run(),
    }


class TestOutOfCoreSolves:
    def test_mmap_davidson_matches_dense(self, h2, dense_reference):
        res = FCISolver(h2, "sto-3g", method="davidson", vector_store="mmap").run()
        assert res.solve.converged
        assert abs(res.energy - dense_reference["H2"].energy) < 1e-10

    def test_mmap_under_tiny_block_budget(self, heh_plus, dense_reference):
        # the oom-smoke shape: out-of-core vectors + a deliberately starved
        # kernel block budget must still reproduce the dense energy
        res = FCISolver(
            heh_plus,
            "sto-3g",
            method="davidson",
            vector_store={"kind": "mmap"},
            block_columns=1,
        ).run()
        assert res.solve.converged
        assert abs(res.energy - dense_reference["HeH+"].energy) < 1e-10

    def test_mmap_single_vector_methods_match(self, h2, dense_reference):
        for method in ("auto", "olsen"):
            res = FCISolver(h2, "sto-3g", method=method, vector_store="mmap").run()
            assert res.solve.converged
            assert abs(res.energy - dense_reference["H2"].energy) < 1e-10

    def test_store_metrics_published(self, h2, tmp_path):
        tele = Telemetry()
        res = FCISolver(
            h2,
            "sto-3g",
            method="davidson",
            vector_store={"kind": "mmap", "directory": str(tmp_path)},
            telemetry=tele,
        ).run()
        assert res.solve.converged
        assert tele.registry.get("vectors.resident_bytes").value == 0.0
        assert tele.registry.get("vectors.total_bytes").value > 0.0

    def test_run_multiroot_honours_the_vector_store(self, h2, tmp_path, monkeypatch):
        # regression: run_multiroot sized the kernel blocks for out-of-core
        # vectors but never handed the store to the block solver
        ref = FCISolver(h2, "sto-3g").run_multiroot(2)
        tele = Telemetry()
        held = []
        allocate = MmapStore.allocate
        monkeypatch.setattr(
            MmapStore, "allocate", lambda self: held.append(allocate(self)) or held[-1]
        )
        res = FCISolver(
            h2,
            "sto-3g",
            vector_store={"kind": "mmap", "directory": str(tmp_path)},
            telemetry=tele,
        ).run_multiroot(2)
        assert np.array_equal(res.energies, ref.energies)
        assert np.array_equal(res.vectors, ref.vectors)
        assert res.n_iterations == ref.n_iterations
        assert len(held) >= 4  # two basis vectors and their sigmas, at least
        assert tele.registry.get("vectors.total_bytes").value > 0.0
        assert os.listdir(tmp_path) == []

    def test_multiroot_never_asks_for_a_stack_of_sigmas(self, tmp_path, monkeypatch):
        """An out-of-core block solve streams: each sigma is held in the
        store before the next is computed, whatever the operator offers."""
        problem = make_random_problem(6, 3, 2, seed=7, diag=np.linspace(-2, 2, 6))
        pre = ModelSpacePreconditioner(problem, 12)
        guesses = model_space_guesses(problem, pre, 2)
        plain = HamiltonianOperator(problem)
        ref = davidson_multiroot(lambda C: plain(C), guesses, pre, n_roots=2)

        def poisoned(self, C_stack):
            raise AssertionError("a k-stack of sigmas was requested")

        monkeypatch.setattr(HamiltonianOperator, "apply_batch", poisoned)
        store = make_store("mmap", problem.shape, directory=tmp_path)
        try:
            res = davidson_multiroot(
                HamiltonianOperator(problem), guesses, pre, n_roots=2, store=store
            )
        finally:
            store.close()
        assert res.converged
        assert np.array_equal(res.energies, ref.energies)
        assert np.array_equal(res.history, ref.history)
        assert np.array_equal(res.vectors, ref.vectors)
        assert (res.n_sigma, res.n_iterations) == (ref.n_sigma, ref.n_iterations)


class TestCDFCI:
    @pytest.mark.parametrize("name", ["H2", "HeH+"])
    def test_matches_dense_fci(self, name, h2, heh_plus, dense_reference):
        mol = {"H2": h2, "HeH+": heh_plus}[name]
        res = FCISolver(mol, "sto-3g", method="cdfci").run()
        ref = dense_reference[name]
        assert res.solve.converged
        assert res.solve.method == "cdfci"
        assert abs(res.energy - ref.energy) < 1e-6

    @pytest.mark.parametrize("name", ["H2", "HeH+"])
    def test_never_violates_variational_bound(self, name, h2, heh_plus, dense_reference):
        mol = {"H2": h2, "HeH+": heh_plus}[name]
        res = FCISolver(mol, "sto-3g", method="cdfci").run()
        ref = dense_reference[name]
        sweeps = np.asarray(res.solve.energies) + res.mo.e_core
        assert np.all(sweeps >= ref.energy - 1e-9)

    def test_capacity_bound_still_matches(self, heh_plus, dense_reference):
        res = FCISolver(
            heh_plus,
            "sto-3g",
            method="cdfci",
            vector_store={"kind": "sparse", "capacity": 12},
        ).run()
        assert res.solve.converged
        assert abs(res.energy - dense_reference["HeH+"].energy) < 1e-6

    def test_checkpoint_resume_replays_exactly(self, h2, tmp_path):
        from repro.core.cdfci import cdfci_solve

        problem, _, _ = FCISolver(h2, "sto-3g").build_problem()
        full = cdfci_solve(problem)
        assert full.converged

        path = tmp_path / "cd.npz"
        partial = cdfci_solve(problem, checkpoint=Checkpointer(path), max_iterations=1)
        assert not partial.converged
        resumed = cdfci_solve(problem, checkpoint=Checkpointer(path))
        assert resumed.converged
        assert resumed.energy == full.energy
        assert list(resumed.energies) == list(full.energies)

    def test_normalized_vector_and_spin(self, h2):
        res = FCISolver(h2, "sto-3g", method="cdfci").run()
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-10)
        assert res.s_squared == pytest.approx(0.0, abs=1e-8)
