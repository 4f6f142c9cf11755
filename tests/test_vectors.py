"""Storage-layer tests: store conformance, typed checkpoints, out-of-core solves.

Three groups:

* a **conformance suite** run against every registered CI-vector store
  backend — the protocol contract (write/read-back, axpy/dot/norm,
  resident-byte semantics) that lets solvers stay backend-agnostic;
* **store-typed checkpoints** — a dense restart refuses a checkpoint
  written by another store (out-of-core, or a format this version no
  longer writes) instead of silently loading it, and the mmap sidecar
  round-trips as a read-only memory map;
* **differential solves** — mmap-backed Davidson under a tiny block
  budget matches the dense run to 1e-10.
"""

from __future__ import annotations

import json
import os
import zlib

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
    _REGISTRY,
    CIVectorStore,
    DenseStore,
    MmapStore,
    make_store,
    publish_store_metrics,
    register_store,
    store_kinds,
)
from repro.obs import Telemetry
from tests.helpers import make_random_problem, model_space_guesses

SHAPE = (6, 4)
KINDS = ("dense", "mmap")
METHODS = ("auto", "davidson", "olsen", "olsen-damped")


def _make(kind, tmp_path):
    if kind == "mmap":
        return make_store(kind, SHAPE, directory=str(tmp_path))
    return make_store(kind, SHAPE)


def _payload(seed=3):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(SHAPE)
    arr[rng.random(SHAPE) < 0.4] = 0.0
    return arr


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_all_backends_registered(self):
        assert store_kinds() == ("dense", "mmap")

    def test_unknown_kind_lists_registry(self):
        with pytest.raises(ValueError, match="registered stores: dense, mmap$"):
            make_store("hdf5", SHAPE)

    def test_make_store_constructs_the_named_class(self, tmp_path):
        assert isinstance(make_store("dense", SHAPE), DenseStore)
        assert isinstance(make_store("mmap", SHAPE, directory=tmp_path), MmapStore)

    def test_register_store_names_the_class_and_lists_it(self, monkeypatch):
        monkeypatch.setattr(_REGISTRY, "_entries", dict(_REGISTRY._entries))

        @register_store("probe")
        class _Probe(DenseStore):
            pass

        assert _Probe.kind == "probe"
        assert store_kinds() == ("dense", "mmap", "probe")
        store = make_store("probe", SHAPE)
        assert isinstance(store, _Probe) and store.kind == "probe"
        monkeypatch.undo()
        assert store_kinds() == ("dense", "mmap")


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

    def test_write_preserves_every_bit(self, kind, tmp_path):
        arr = _payload()
        arr[0, 0] = -0.0
        arr[0, 1] = 5e-324  # smallest subnormal
        arr[0, 2] = np.nextafter(1.0, 2.0)
        store = _make(kind, tmp_path)
        store.write(arr)
        got = np.asarray(store.as_ndarray()).reshape(SHAPE)
        assert got.tobytes() == arr.tobytes()
        store.close()

    def test_write_accepts_a_flat_payload(self, kind, tmp_path):
        arr = _payload()
        store = _make(kind, tmp_path)
        store.write(arr.ravel())
        assert np.array_equal(np.asarray(store.as_ndarray()).reshape(SHAPE), arr)
        with pytest.raises(ValueError):
            store.write(np.zeros(SHAPE[0] * SHAPE[1] + 1))
        store.close()

    def test_unit_axpy_is_plain_addition(self, kind, tmp_path):
        a, b = _payload(4), _payload(5)
        store = _make(kind, tmp_path)
        store.write(a)
        store.axpy(1.0, b)
        got = np.asarray(store.as_ndarray()).reshape(SHAPE)
        assert got.tobytes() == (a + b).tobytes()
        store.close()

    def test_arithmetic_across_backends(self, kind, tmp_path):
        # a solver may mix a dense iterate with an out-of-core sibling
        other_kind = "mmap" if kind == "dense" else "dense"
        a, b = _payload(6), _payload(7)
        store = _make(kind, tmp_path)
        other = _make(other_kind, tmp_path)
        store.write(a)
        other.write(b)
        assert store.dot(other) == pytest.approx(np.vdot(a, b), abs=1e-14)
        assert other.dot(store) == pytest.approx(np.vdot(a, b), abs=1e-14)
        store.axpy(2.0, other)
        assert np.allclose(np.asarray(store.as_ndarray()), a + 2.0 * b, atol=1e-15)
        store.close()
        other.close()

    def test_nbytes_is_the_logical_payload(self, kind, tmp_path):
        store = _make(kind, tmp_path)
        assert store.nbytes == 8 * SHAPE[0] * SHAPE[1]
        assert 0 <= store.resident_nbytes <= store.nbytes
        store.close()

    def test_allocated_sibling_is_independent(self, kind, tmp_path):
        arr = _payload()
        store = _make(kind, tmp_path)
        store.write(arr)
        sibling = store.allocate()
        assert sibling.kind == kind
        sibling.write(np.ones(SHAPE))
        assert np.array_equal(np.asarray(store.as_ndarray()).reshape(SHAPE), arr)
        sibling.axpy(-1.0, store)
        assert np.array_equal(np.asarray(sibling.as_ndarray()), 1.0 - arr)
        sibling.close()
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


class TestDenseStore:
    def test_wrap_shares_the_buffer(self):
        arr = _payload()
        store = DenseStore.wrap(arr)
        assert store.as_ndarray() is arr
        store.axpy(1.0, np.ones(SHAPE))
        assert arr[0, 0] == store.as_ndarray()[0, 0]
        assert np.shares_memory(arr, store.as_ndarray())

    def test_rejects_a_wrong_shape(self):
        with pytest.raises(ValueError, match="store shape"):
            DenseStore((3, 3), array=np.zeros((3, 4)))

    def test_rejects_a_non_float64_payload(self):
        with pytest.raises(ValueError, match="float64"):
            DenseStore.wrap(np.zeros(SHAPE, dtype=np.float32))


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

    def test_read_only_reopen_cannot_be_written(self, tmp_path):
        arr = _payload()
        first = make_store("mmap", SHAPE, directory=tmp_path)
        first.write(arr)
        first.flush()
        view = MmapStore(SHAPE, path=first.path, mode="r")
        assert not view.as_ndarray().flags.writeable
        with pytest.raises(ValueError):
            view.write(np.zeros(SHAPE))
        assert np.array_equal(np.asarray(view.as_ndarray()), arr)
        view.close()
        first.close()

    def test_siblings_land_in_the_same_directory(self, tmp_path):
        store = make_store("mmap", SHAPE, directory=tmp_path)
        sibling = store.allocate()
        assert os.path.dirname(sibling.path) == os.path.dirname(store.path)
        assert sibling.path != store.path
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(p) for p in (store.path, sibling.path)
        )
        sibling.close()
        store.close()
        assert os.listdir(tmp_path) == []

    def test_closed_store_keeps_no_full_size_array(self, tmp_path):
        store = make_store("mmap", SHAPE, directory=tmp_path)
        store.close()
        closed = store.as_ndarray()
        assert closed.shape == (0,) + SHAPE[1:]
        assert closed.base is None and closed.nbytes == 0

    def test_allocate_takes_a_block_shape(self, tmp_path):
        store = make_store("mmap", SHAPE, directory=tmp_path)
        block = store.allocate((3, SHAPE[0] * SHAPE[1]))
        assert block.as_ndarray().shape == (3, 24)
        assert np.load(block.path).shape == (3, 24)
        block.close()
        store.close()
        assert os.listdir(tmp_path) == []

    def test_private_directory_removed_on_close(self):
        store = MmapStore(SHAPE)
        directory = os.path.dirname(store.path)
        assert os.path.isdir(directory)
        store.close()
        assert not os.path.exists(directory)


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

    def test_saved_checkpoint_holds_only_header_and_vector(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz")
        cp.save(_state(_payload(), "dense"))
        with np.load(cp.path) as npz:
            assert sorted(npz.files) == ["header", "vector"]
            header = json.loads(npz["header"].tobytes().decode())
        assert "arrays" not in header
        assert header["store"] == "dense"

    def test_old_coordinate_descent_checkpoint_is_refused_safely(self, tmp_path):
        # the format an earlier version's coordinate-descent solver wrote:
        # store "sparse", method "cdfci", extra CRC-mapped arr_* members
        vec = _payload()
        extras = {"keys": np.array([3, 1, 4]), "c": np.array([0.1, 0.2, 0.3])}
        header = {
            "version": 1,
            "method": "cdfci",
            "iteration": 7,
            "n_sigma": 7000,
            "meta": {},
            "energies": [-1.0],
            "residual_norms": [0.1],
            "shape": list(vec.shape),
            "dtype": "float64",
            "store": "sparse",
            "arrays": {name: zlib.crc32(a.tobytes()) for name, a in extras.items()},
            "crc32": zlib.crc32(vec.tobytes()),
        }
        path = tmp_path / "ck.npz"
        with open(path, "wb") as f:
            np.savez(
                f,
                vector=vec,
                header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                **{f"arr_{name}": a for name, a in extras.items()},
            )
        cp = Checkpointer(path, telemetry=Telemetry())
        peeked = cp.peek()
        assert (peeked["method"], peeked["store"], peeked["iteration"]) == ("cdfci", "sparse", 7)
        state = cp.load()
        assert np.array_equal(state.vector, vec)
        assert (state.method, state.store_kind) == ("cdfci", "sparse")
        assert cp.restore("auto", store_kind="dense") is None
        reg = cp.telemetry.registry
        assert reg.get("solver.checkpoint.store_mismatch").value == 1.0


# -- the eigensolver method registry ------------------------------------------


class TestMethodRegistry:
    def test_builtin_methods_registered(self):
        assert method_names() == ("auto", "davidson", "olsen", "olsen-damped")

    def test_register_method_extends_the_driver(self, h2, monkeypatch):
        monkeypatch.setattr(_METHODS, "_entries", dict(_METHODS._entries))

        @register_method("probe")
        def _probe(solver, problem, sigma_fn, guess, precond, store, kwargs):
            return _METHODS["davidson"](
                solver, problem, sigma_fn, guess, precond, store, kwargs
            )

        assert "probe" in method_names()
        res = FCISolver(h2, "sto-3g", method="probe").run()
        assert res.solve.converged

    def test_unknown_method_rejected_with_registry_listing(self, h2):
        with pytest.raises(ValueError, match="registered eigensolver"):
            FCISolver(h2, "sto-3g", method="lanczos")

    def test_store_kind_validation(self, h2):
        with pytest.raises(ValueError, match="store kind"):
            FCISolver(h2, "sto-3g", vector_store="hdf5")

    @pytest.mark.parametrize(
        "option,value,match",
        [
            ("method", "cdfci", r"\(auto, davidson, olsen, olsen-damped\); got 'cdfci'"),
            ("vector_store", "sparse", "one of dense, mmap; got 'sparse'"),
        ],
    )
    def test_retired_names_are_rejected_with_the_registry(self, h2, option, value, match):
        # an older workdir or script may still name the coordinate-descent
        # solver or its sparse store: a clean ValueError, not a KeyError
        with pytest.raises(ValueError, match=match):
            FCISolver(h2, "sto-3g", **{option: value})


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

    @pytest.mark.parametrize("name", ["H2", "HeH+"])
    @pytest.mark.parametrize("method", METHODS)
    def test_mmap_never_violates_variational_bound(
        self, name, method, h2, heh_plus, dense_reference
    ):
        mol = {"H2": h2, "HeH+": heh_plus}[name]
        res = FCISolver(mol, "sto-3g", method=method, vector_store="mmap").run()
        exact = dense_reference[name].solve.energy
        assert res.solve.converged
        assert all(e >= exact - 1e-10 for e in res.solve.energies)
        assert abs(res.energy - dense_reference[name].energy) < 1e-10

    @pytest.mark.parametrize("method", METHODS)
    def test_mmap_vector_is_normalized_singlet(self, method, h2, dense_reference):
        res = FCISolver(h2, "sto-3g", method=method, vector_store="mmap").run()
        assert isinstance(res.vector, np.ndarray)
        assert not isinstance(res.vector, np.memmap)  # outlives the store
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
        assert res.s_squared == pytest.approx(0.0, abs=1e-10)
        overlap = abs(np.vdot(res.vector, dense_reference["H2"].vector))
        assert overlap == pytest.approx(1.0, abs=1e-8)

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
            MmapStore,
            "allocate",
            lambda self, shape=None: held.append(allocate(self, shape)) or held[-1],
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
        assert [h.shape[0] for h in held] == [24, 24]  # the basis and sigma blocks
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
