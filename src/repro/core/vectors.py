"""Pluggable CI-vector storage: one protocol, two representations.

The paper's design is dominated by a single data structure - CI vectors
that barely fit the machine.  The X1 work distributes *dense* vectors
across nodes because one node cannot hold them; out-of-core work streams
dense vectors through the column-blocked kernels from disk.  Both are the
same object - a CI vector - with a different storage contract, so this
module makes the contract explicit:

* :class:`CIVectorStore` - the protocol every layer above the kernels
  programs against: allocate siblings, expose the payload as an ndarray,
  axpy / dot / norm, report logical vs *resident* bytes, flush durably.
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

Backends register by name (``register_store`` / ``make_store``), mirroring
the sigma-kernel registry, so drivers validate storage kinds the same way
they validate kernels.
"""

from __future__ import annotations

import os
import tempfile
from typing import Protocol, runtime_checkable

import numpy as np

from ..registry import Registry

__all__ = [
    "CIVectorStore",
    "DenseStore",
    "MmapStore",
    "register_store",
    "store_kinds",
    "make_store",
    "publish_store_metrics",
]


@runtime_checkable
class CIVectorStore(Protocol):
    """What every CI-vector consumer may assume about a storage backend.

    ``shape`` is the logical (n_alpha_strings, n_beta_strings) CI matrix
    shape; ``nbytes`` the logical payload size; ``resident_nbytes`` the
    bytes *guaranteed resident in RAM* (dense: everything; mmap: nothing -
    page cache is reclaimable).  The memory budgeting layer
    (:meth:`repro.core.plans.SigmaPlan.default_block_columns`) subtracts
    ``resident_nbytes``, never ``nbytes``, from its budget.
    """

    kind: str
    shape: tuple[int, ...]

    def allocate(self) -> "CIVectorStore": ...

    def as_ndarray(self) -> np.ndarray: ...

    def write(self, values) -> None: ...

    def axpy(self, alpha: float, other) -> None: ...

    def dot(self, other) -> float: ...

    def norm(self) -> float: ...

    @property
    def nbytes(self) -> int: ...

    @property
    def resident_nbytes(self) -> int: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


# -- registry -----------------------------------------------------------------

_REGISTRY = Registry("CI-vector store", "stores")


def register_store(name: str):
    """Class decorator: register a CIVectorStore backend under ``name``."""

    def deco(cls):
        _REGISTRY.register(name, cls)
        cls.kind = name
        return cls

    return deco


def store_kinds() -> tuple[str, ...]:
    """Names of all registered CI-vector storage backends (sorted)."""
    return _REGISTRY.names()


def make_store(kind: str, shape, **options):
    """Construct a registered store by name, or raise listing the registry."""
    return _REGISTRY[kind](tuple(int(s) for s in shape), **options)


def _other_array(other) -> np.ndarray:
    return other if isinstance(other, np.ndarray) else other.as_ndarray()


class _DenseLike:
    """Shared ndarray-backed implementation for DenseStore and MmapStore."""

    _arr: np.ndarray
    shape: tuple[int, ...]

    def as_ndarray(self) -> np.ndarray:
        return self._arr

    def write(self, values) -> None:
        """Full-content assignment (bit-preserving)."""
        self._arr[...] = np.asarray(values).reshape(self._arr.shape)

    def axpy(self, alpha: float, other) -> None:
        src = _other_array(other).reshape(self._arr.shape)
        if alpha == 1.0:
            self._arr += src
        else:
            self._arr += alpha * src

    def dot(self, other) -> float:
        return float(
            self._arr.ravel() @ _other_array(other).reshape(self._arr.shape).ravel()
        )

    def norm(self) -> float:
        return float(np.linalg.norm(self._arr))

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
