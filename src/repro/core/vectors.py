"""Pluggable CI-vector storage: one protocol, three representations.

The paper's design is dominated by a single data structure - CI vectors
that barely fit the machine.  The X1 work distributes *dense* vectors
across nodes because one node cannot hold them; CDFCI-style solvers
(PAPERS.md) go the other way and keep only the determinants that matter in
a hash map; out-of-core work streams dense vectors through the
column-blocked kernels from disk.  All three are the same object - a CI vector - with a
different storage contract, so this module makes the contract explicit:

* :class:`CIVectorStore` - the protocol every layer above the kernels
  programs against: allocate siblings, yield dense column blocks, axpy /
  dot / norm, iterate nonzeros, report logical vs *resident* bytes, flush
  durably.
* :class:`DenseStore` - today's behavior, a zero-copy wrap of an
  ``np.ndarray``.  Solver runs through a ``DenseStore`` are bitwise
  identical to pre-store runs (allocation plus full-content assignment
  preserves every bit).
* :class:`MmapStore` - a memory-mapped ``.npy`` vector.  The array the
  kernels consume is an ``np.memmap``, so the existing column-blocked
  sigma sweeps stream pages from disk: the OS working set is the block
  intermediates sized by ``block_columns``, not the full vector, and the
  payload survives the process (checkpoint-grade durability via
  :meth:`~MmapStore.flush`).
* :class:`SparseStore` - a hash-map coordinate representation (flat
  determinant index -> slot in growable value arrays) with top-k
  compaction, the CDFCI substrate.  Stores can share one index through
  :meth:`~SparseStore.sibling`, which keeps c and b = H c slot-aligned so
  coordinate-descent selection is vectorized.

Backends register by name (``register_store`` / ``make_store``), mirroring
the sigma-kernel registry, so drivers validate storage kinds the same way
they validate kernels.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "CIVectorStore",
    "DenseStore",
    "MmapStore",
    "SparseStore",
    "register_store",
    "store_kinds",
    "make_store",
    "as_dense_array",
    "publish_store_metrics",
]

_ITEM = 8  # float64 payload bytes


@runtime_checkable
class CIVectorStore(Protocol):
    """What every CI-vector consumer may assume about a storage backend.

    ``shape`` is the logical (n_alpha_strings, n_beta_strings) CI matrix
    shape; ``nbytes`` the logical payload size; ``resident_nbytes`` the
    bytes *guaranteed resident in RAM* (dense: everything; mmap: nothing -
    page cache is reclaimable; sparse: the occupied slots).  The memory
    budgeting layer (:meth:`repro.core.plans.SigmaPlan.default_block_columns`)
    subtracts ``resident_nbytes``, never ``nbytes``, from its budget.
    """

    kind: str
    shape: tuple[int, ...]

    def allocate(self) -> "CIVectorStore": ...

    def as_ndarray(self) -> np.ndarray: ...

    def view_block(self, lo: int, hi: int) -> np.ndarray: ...

    def to_dense_block(self, lo: int, hi: int) -> np.ndarray: ...

    def axpy(self, alpha: float, other) -> None: ...

    def dot(self, other) -> float: ...

    def norm(self) -> float: ...

    def iter_nonzero(self) -> Iterator[tuple[tuple[int, int], float]]: ...

    @property
    def nbytes(self) -> int: ...

    @property
    def resident_nbytes(self) -> int: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


# -- registry -----------------------------------------------------------------

_REGISTRY: dict[str, type] = {}


def register_store(name: str):
    """Class decorator: register a CIVectorStore backend under ``name``."""

    def deco(cls):
        cls.kind = name
        _REGISTRY[name] = cls
        return cls

    return deco


def store_kinds() -> tuple[str, ...]:
    """Names of all registered CI-vector storage backends (sorted)."""
    return tuple(sorted(_REGISTRY))


def make_store(kind: str, shape, **options):
    """Construct a registered store by name, or raise listing the registry."""
    try:
        cls = _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown CI-vector store {kind!r}; registered stores: "
            f"{', '.join(store_kinds())}"
        ) from None
    return cls(tuple(int(s) for s in shape), **options)


def as_dense_array(vector) -> np.ndarray:
    """A dense ndarray view/copy of a store *or* a plain ndarray.

    Zero-copy for :class:`DenseStore` and :class:`MmapStore` (a memmap *is*
    an ndarray the kernels stream through); a densification for
    :class:`SparseStore`.  Plain ndarrays pass through untouched, which is
    what lets every sigma path accept either representation.
    """
    if isinstance(vector, np.ndarray):
        return vector
    return vector.as_ndarray()


def _other_array(other) -> np.ndarray:
    return other if isinstance(other, np.ndarray) else other.as_ndarray()


class _DenseLike:
    """Shared ndarray-backed implementation for DenseStore and MmapStore."""

    _arr: np.ndarray
    shape: tuple[int, ...]

    def as_ndarray(self) -> np.ndarray:
        return self._arr

    def _cols(self) -> np.ndarray:
        """The array with a last 'columns' axis (1-D vectors get one)."""
        return self._arr if self._arr.ndim > 1 else self._arr[:, None]

    def view_block(self, lo: int, hi: int) -> np.ndarray:
        """Writable view of columns [lo, hi) - the kernels' block unit."""
        return self._cols()[..., lo:hi]

    def to_dense_block(self, lo: int, hi: int) -> np.ndarray:
        return self.view_block(lo, hi)

    def write(self, values) -> None:
        """Full-content assignment (bit-preserving)."""
        self._arr[...] = np.asarray(values).reshape(self._arr.shape)

    def fill(self, value: float = 0.0) -> None:
        self._arr.fill(value)

    def axpy(self, alpha: float, other) -> None:
        src = _other_array(other).reshape(self._arr.shape)
        if alpha == 1.0:
            self._arr += src
        else:
            self._arr += alpha * src

    def scale(self, alpha: float) -> None:
        self._arr *= alpha

    def dot(self, other) -> float:
        return float(
            self._arr.ravel() @ _other_array(other).reshape(self._arr.shape).ravel()
        )

    def norm(self) -> float:
        return float(np.linalg.norm(self._arr))

    def iter_nonzero(self) -> Iterator[tuple[tuple[int, int], float]]:
        cols = self._cols()
        for idx in zip(*np.nonzero(cols)):
            yield (int(idx[0]), int(idx[-1])), float(cols[idx])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._arr))

    @property
    def nbytes(self) -> int:
        return int(self._arr.nbytes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape}, nbytes={self.nbytes})"


@register_store("dense")
class DenseStore(_DenseLike):
    """In-RAM CI vector: a zero-copy wrap of (or a freshly zeroed) ndarray.

    ``DenseStore.wrap(arr)`` shares ``arr``'s buffer - mutations through the
    store are mutations of ``arr`` - which is how per-rank shared-memory
    segments and solver iterates become store views without a copy.
    """

    def __init__(self, shape, *, array: np.ndarray | None = None):
        self.shape = tuple(int(s) for s in shape)
        if array is None:
            array = np.zeros(self.shape)
        else:
            array = np.asarray(array)
            if array.shape != self.shape:
                raise ValueError(f"array shape {array.shape} != store shape {self.shape}")
            if array.dtype != np.float64:
                raise ValueError(f"CI vectors are float64, got {array.dtype}")
        self._arr = array

    @classmethod
    def wrap(cls, array: np.ndarray) -> "DenseStore":
        """Zero-copy store view of an existing float64 ndarray."""
        return cls(array.shape, array=array)

    def allocate(self) -> "DenseStore":
        return DenseStore(self.shape)

    @property
    def resident_nbytes(self) -> int:
        return self.nbytes

    def flush(self) -> None:  # RAM is as durable as the process; no-op
        pass

    def close(self) -> None:
        pass


@register_store("mmap")
class MmapStore(_DenseLike):
    """Disk-backed CI vector: one memory-mapped ``.npy`` file.

    The backing array is an ``np.memmap``, so every existing kernel and
    solver expression works unchanged while the OS pages blocks in and out;
    ``resident_nbytes`` is therefore 0 for the payload (page cache is
    reclaimable under memory pressure, which is the whole point).

    ``directory``: where sibling allocations land (a private temporary
    directory is created when omitted and removed on :meth:`close` of the
    store that owns it).  ``path``: open/create this exact file instead;
    ``mode="r+"`` reopens an existing vector (out-of-core checkpoint
    resume), ``"r"`` maps it read-only.
    """

    def __init__(self, shape, *, directory=None, path=None, mode: str = "w+"):
        self.shape = tuple(int(s) for s in shape)
        self._owned_tmp = None
        self._owns_file = path is None
        if path is None:
            if directory is None:
                self._owned_tmp = tempfile.TemporaryDirectory(prefix="civec-")
                directory = self._owned_tmp.name
            os.makedirs(directory, exist_ok=True)
            fd, path = tempfile.mkstemp(suffix=".npy", prefix="vec-", dir=directory)
            os.close(fd)
            mode = "w+"
        self.path = os.fspath(path)
        self.directory = os.path.dirname(self.path) if directory is None else os.fspath(directory)
        if mode == "w+":
            self._arr = np.lib.format.open_memmap(
                self.path, mode="w+", dtype=np.float64, shape=self.shape
            )
        else:
            self._arr = np.lib.format.open_memmap(self.path, mode=mode)
            if tuple(self._arr.shape) != self.shape:
                raise ValueError(
                    f"mmap file {self.path!r} holds shape {self._arr.shape}, "
                    f"expected {self.shape}"
                )

    def allocate(self) -> "MmapStore":
        return MmapStore(self.shape, directory=self.directory)

    @property
    def resident_nbytes(self) -> int:
        # the payload lives in reclaimable page cache; only bookkeeping is
        # pinned.  This is the figure the block-budget heuristic subtracts.
        return 0

    def flush(self) -> None:
        """Push dirty pages to the backing file (durability point)."""
        self._arr.flush()

    def close(self) -> None:
        """Drop the mapping and reclaim files this store created itself."""
        self._arr = np.zeros(self.shape)[:0]  # release the memmap reference
        if self._owned_tmp is not None:
            self._owned_tmp.cleanup()
            self._owned_tmp = None
        elif self._owns_file and os.path.exists(self.path):
            os.remove(self.path)

    def __repr__(self) -> str:
        return f"MmapStore(shape={self.shape}, path={self.path!r})"


# -- sparse backend -----------------------------------------------------------


class _SparseIndex:
    """Shared flat-key -> slot map for one family of aligned SparseStores."""

    def __init__(self):
        self.slots: dict[int, int] = {}
        self.keys = np.zeros(64, dtype=np.int64)
        self.n = 0
        self.members: list["SparseStore"] = []

    def _grow(self, need: int) -> None:
        cap = len(self.keys)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        self.keys = np.resize(self.keys, cap)
        for store in self.members:
            store._vals = np.resize(store._vals, cap)
            store._vals[self.n:] = 0.0

    def ensure(self, key: int) -> int:
        slot = self.slots.get(key)
        if slot is None:
            slot = self.n
            self._grow(slot + 1)
            self.slots[key] = slot
            self.keys[slot] = key
            self.n += 1
        return slot

    def ensure_many(self, keys) -> np.ndarray:
        return np.fromiter(
            (self.ensure(int(k)) for k in keys), dtype=np.int64, count=len(keys)
        )

    def lookup_many(self, keys) -> np.ndarray:
        """Slots for keys, -1 where absent."""
        get = self.slots.get
        return np.fromiter(
            (get(int(k), -1) for k in keys), dtype=np.int64, count=len(keys)
        )

    def reindex(self, keep_slots: np.ndarray) -> None:
        """Compact every member store down to ``keep_slots`` (in order)."""
        new_keys = self.keys[keep_slots].copy()
        for store in self.members:
            kept = store._vals[keep_slots].copy()
            store._vals = np.zeros(max(64, len(self.keys)), dtype=np.float64)
            store._vals[: len(kept)] = kept
        self.keys[: len(new_keys)] = new_keys
        self.n = len(new_keys)
        self.slots = {int(k): i for i, k in enumerate(new_keys)}


@register_store("sparse")
class SparseStore:
    """Hash-map coordinate CI vector with top-k compaction.

    Keys are flat determinant indices ``ia * n_beta + ib``; values live in a
    growable float64 array addressed through a shared ``dict`` index.
    ``capacity`` bounds the live determinant count: :meth:`compact` keeps the
    ``capacity`` largest-|value| entries (stable order, so compaction is
    deterministic).  :meth:`sibling` creates a second store sharing this
    store's index - slot ``i`` means the same determinant in both - which is
    the layout CDFCI needs to keep c and b = H c aligned.
    """

    def __init__(self, shape, *, capacity: int | None = None, index=None):
        self.shape = tuple(int(s) for s in shape)
        self.capacity = int(capacity) if capacity else None
        self._index = index if index is not None else _SparseIndex()
        self._vals = np.zeros(max(64, len(self._index.keys)), dtype=np.float64)
        if index is not None and len(self._vals) < len(index.keys):
            self._vals = np.resize(self._vals, len(index.keys))
        self._index.members.append(self)

    # -- structure -----------------------------------------------------------
    @property
    def _ncols(self) -> int:
        return self.shape[-1] if len(self.shape) > 1 else 1

    @property
    def dimension(self) -> int:
        return int(np.prod(self.shape))

    @property
    def nnz(self) -> int:
        return self._index.n

    @property
    def keys(self) -> np.ndarray:
        """Flat determinant indices of the occupied slots (shared order)."""
        return self._index.keys[: self._index.n]

    @property
    def values(self) -> np.ndarray:
        """Values aligned with :attr:`keys` (a live view - do not resize)."""
        return self._vals[: self._index.n]

    def sibling(self) -> "SparseStore":
        """A new store sharing this one's index (slot-aligned values)."""
        return SparseStore(self.shape, capacity=None, index=self._index)

    def allocate(self) -> "SparseStore":
        return SparseStore(self.shape, capacity=self.capacity)

    # -- element access ------------------------------------------------------
    def get(self, key: int) -> float:
        slot = self._index.slots.get(int(key))
        return float(self._vals[slot]) if slot is not None else 0.0

    def set(self, key: int, value: float) -> None:
        self._vals[self._index.ensure(int(key))] = value

    def add_at(self, key: int, value: float) -> None:
        self._vals[self._index.ensure(int(key))] += value

    def scatter_add(self, keys, values) -> None:
        """self[keys] += values (duplicate keys accumulate)."""
        slots = self._index.ensure_many(keys)
        np.add.at(self._vals, slots, values)

    def get_many(self, keys) -> np.ndarray:
        slots = self._index.lookup_many(keys)
        out = np.where(slots >= 0, self._vals[np.maximum(slots, 0)], 0.0)
        return out

    # -- protocol ops --------------------------------------------------------
    def write(self, values) -> None:
        """Replace contents with the nonzeros of a dense array."""
        arr = np.asarray(values).reshape(self.shape)
        flat = arr.ravel()
        nz = np.nonzero(flat)[0]
        self._index.reindex(np.zeros(0, dtype=np.int64))
        self.scatter_add(nz, flat[nz])

    def fill(self, value: float = 0.0) -> None:
        if value != 0.0:
            raise ValueError("a sparse store can only be cleared, not filled")
        self._vals[: self._index.n] = 0.0

    def as_ndarray(self) -> np.ndarray:
        dense = np.zeros(self.dimension)
        dense[self.keys] = self.values
        return dense.reshape(self.shape)

    def view_block(self, lo: int, hi: int) -> np.ndarray:
        return self.to_dense_block(lo, hi)

    def to_dense_block(self, lo: int, hi: int) -> np.ndarray:
        """Dense columns [lo, hi) - what a block-sweeping kernel consumes."""
        nc = self._ncols
        keys, vals = self.keys, self.values
        col = keys % nc
        mask = (col >= lo) & (col < hi)
        if len(self.shape) == 1:
            out = np.zeros(hi - lo)
            out[keys[mask] - lo] = vals[mask]
            return out
        out = np.zeros((self.shape[0], hi - lo))
        out[keys[mask] // nc, col[mask] - lo] = vals[mask]
        return out

    def axpy(self, alpha: float, other) -> None:
        if isinstance(other, SparseStore):
            self.scatter_add(other.keys, alpha * other.values)
        else:
            flat = _other_array(other).ravel()
            nz = np.nonzero(flat)[0]
            self.scatter_add(nz, alpha * flat[nz])

    def scale(self, alpha: float) -> None:
        self._vals[: self._index.n] *= alpha

    def dot(self, other) -> float:
        if isinstance(other, SparseStore):
            if other._index is self._index:
                return float(self.values @ other.values)
            a, b = (self, other) if self.nnz <= other.nnz else (other, self)
            return float(a.values @ b.get_many(a.keys))
        flat = _other_array(other).ravel()
        return float(self.values @ flat[self.keys])

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def iter_nonzero(self) -> Iterator[tuple[tuple[int, int], float]]:
        nc = self._ncols
        for key, val in zip(self.keys, self.values):
            if val != 0.0:
                yield (int(key) // nc, int(key) % nc), float(val)

    # -- compaction ----------------------------------------------------------
    def compact(self, capacity: int | None = None) -> int:
        """Keep the ``capacity`` largest-|value| entries; returns dropped count.

        Deterministic: ties break on slot order (stable sort), so two runs
        of one seed compact identically.  Sibling stores sharing the index
        are reindexed consistently (their values for dropped determinants
        are dropped too - CDFCI recomputes b after compacting c).
        """
        cap = capacity if capacity is not None else self.capacity
        if cap is None or self.nnz <= cap:
            return 0
        order = np.argsort(-np.abs(self.values), kind="stable")[:cap]
        keep = np.sort(order)  # preserve insertion order among the kept
        dropped = self.nnz - len(keep)
        self._index.reindex(keep)
        return dropped

    def compact_slots(self, keep: np.ndarray) -> int:
        """Compact to an explicit slot set (callers with their own ranking,
        e.g. CDFCI protecting the coefficient support while trimming the
        b = Hc frontier).  Sibling stores are reindexed consistently.
        Returns the number of dropped entries."""
        keep = np.sort(np.asarray(keep, dtype=np.int64))
        dropped = self.nnz - len(keep)
        self._index.reindex(keep)
        return dropped

    @property
    def nbytes(self) -> int:
        n = self._index.n
        return int(n * (_ITEM * len(self._index.members) + 8 + 64))  # vals+keys+dict

    @property
    def resident_nbytes(self) -> int:
        return self.nbytes

    def flush(self) -> None:
        pass

    def close(self) -> None:
        if self in self._index.members:
            self._index.members.remove(self)

    def __repr__(self) -> str:
        return (
            f"SparseStore(shape={self.shape}, nnz={self.nnz}, "
            f"capacity={self.capacity})"
        )


# -- observability ------------------------------------------------------------


def publish_store_metrics(registry, stores, prefix: str = "vectors") -> None:
    """Publish the storage layer's footprint gauges to a metrics registry.

    ``vectors.resident_bytes`` is the figure the memory-budget heuristic and
    dashboards watch: RAM actually pinned by CI vectors, which for an
    out-of-core campaign stays near zero while ``vectors.total_bytes``
    reports the logical problem size.
    """
    stores = [s for s in stores if s is not None]
    registry.gauge(f"{prefix}.resident_bytes").set(
        float(sum(s.resident_nbytes for s in stores))
    )
    registry.gauge(f"{prefix}.total_bytes").set(float(sum(s.nbytes for s in stores)))
    registry.gauge(f"{prefix}.count").set(float(len(stores)))
