"""Shared-memory communication layer: the DDI/SHMEM verbs on real processes.

:class:`ShmComm` gives a group of OS processes the same five one-sided
primitives the paper's DDI layer gives MSPs — ``get``, ``acc``,
``fetch_add``, ``barrier``, ``quiet`` — implemented over POSIX shared
memory (:mod:`multiprocessing.shared_memory`):

* distributed arrays become named float64 segments every rank maps into
  its address space, so ``get`` is a zero-copy window and ``put`` is a
  plain store (cache-coherent shared memory makes one-sided access free);
* ``acc`` is a lock-protected in-place add, for callers whose target
  windows may overlap (the sigma decomposition itself writes only
  *disjoint owned* windows, which need no lock — that is the per-rank
  owned-segment design the deterministic reduction relies on);
* ``fetch_add`` is the dynamic-load-balancing counter: a lock-protected
  shared int64, the real-process twin of ``DynamicLoadBalancer.inext``;
* ``barrier`` is a :class:`multiprocessing.Barrier` across all ranks plus
  the parent; ``quiet`` is a documented no-op, because CPython issues the
  stores synchronously and x86/ARM cache coherence plus the barrier/pipe
  synchronization points make them visible before any rank can observe
  the rendezvous.

The parent constructs the comm (creating segments) and ships the picklable
:class:`ShmCommSpec` to spawned workers, which attach by name.  The parent
owns segment lifetime: it unlinks on :meth:`close`.  Workers attaching
re-register the names with the resource tracker, but spawned children
*share* the parent's tracker process (the fd travels in the spawn
preparation data) and its cache is a set, so the re-registration is a
dedupe no-op — nothing is unlinked before the parent's close, and nothing
extra must be unregistered.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ShmComm", "ShmCommSpec"]


@dataclass
class ShmCommSpec:
    """Picklable handle a worker uses to attach to the parent's ShmComm."""

    segments: dict[str, tuple[int, ...]]  # array name -> shape
    names: dict[str, str]  # array name -> OS segment name
    n_ranks: int
    counter: object  # multiprocessing.Value('q')
    lock: object  # multiprocessing.Lock for acc
    barrier: object  # multiprocessing.Barrier over n_ranks + parent


class ShmComm:
    """The five one-sided verbs over named shared-memory float64 arrays."""

    # get() hands out the parent's memory itself: a rank stores its owned
    # windows in place and nothing has to be shipped
    live_windows = True

    def __init__(self, ctx, arrays: dict[str, tuple[int, ...]], n_ranks: int):
        """Parent-side constructor: creates segments and sync primitives."""
        uid = f"{os.getpid():x}-{os.urandom(4).hex()}"
        spec = ShmCommSpec(
            segments=dict(arrays),
            names={name: f"repro-{uid}-{name}" for name in arrays},
            n_ranks=int(n_ranks),
            counter=ctx.Value("q", 0),
            lock=ctx.Lock(),
            # all worker ranks + the parent rendezvous here
            barrier=ctx.Barrier(int(n_ranks) + 1),
        )
        self._map(spec, owner=True)

    @classmethod
    def attach(cls, spec: ShmCommSpec) -> "ShmComm":
        """Worker-side constructor: map the parent's segments by name."""
        self = cls.__new__(cls)
        self._map(spec, owner=False)
        return self

    def _map(self, spec: ShmCommSpec, owner: bool) -> None:
        self._spec = spec
        self._owner = owner
        self.n_ranks = spec.n_ranks
        self._counter = spec.counter
        self._lock = spec.lock
        self._barrier = spec.barrier
        self._shms: dict[str, shared_memory.SharedMemory] = {}
        self._views: dict[str, np.ndarray] = {}
        try:
            for name, shape in spec.segments.items():
                nbytes = max(int(np.prod(shape)) * 8, 8)
                shm = shared_memory.SharedMemory(
                    name=spec.names[name], create=owner, size=nbytes if owner else 0
                )
                self._shms[name] = shm
                self._views[name] = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
                if owner:
                    self._views[name][...] = 0.0
        except BaseException:
            # dying between mapping segment 1 and segment N must not leave
            # the earlier mappings open (they pin /dev/shm space and,
            # through the resource tracker, can outlive the parent)
            self.close()
            raise

    def spec(self) -> ShmCommSpec:
        """The picklable attach handle to pass to spawned workers."""
        return self._spec

    # -- the five verbs -------------------------------------------------------
    def get(self, name: str, window=None) -> np.ndarray:
        """One-sided read: a live window into a shared array.

        ``window`` is any NumPy basic index (slice / tuple of slices); the
        returned view is writable, which is what makes ``put`` and the
        kernels' ``out=`` scatter free on shared memory.
        """
        view = self._views[name]
        return view if window is None else view[window]

    def acc(self, name: str, window, values) -> None:
        """One-sided accumulate: locked in-place add into a window.

        The lock serializes *all* accumulates on this comm (DDI_ACC's
        atomicity guarantee); rank-owned disjoint windows skip this verb
        and store through :meth:`get` views directly.
        """
        with self._lock:
            self._views[name][window] += values

    def fetch_add(self, n: int = 1) -> int:
        """Atomically advance the shared task counter; returns the old value."""
        with self._counter.get_lock():
            value = self._counter.value
            self._counter.value = value + n
        return value

    def barrier(self, timeout: float | None = None) -> None:
        """All ranks + parent rendezvous; raises on a broken barrier."""
        self._barrier.wait(timeout)

    def quiet(self) -> None:
        """Complete outstanding one-sided traffic (SHMEM_QUIET).

        A no-op here: stores into shared memory are issued synchronously
        by the interpreter and made visible by cache coherence before the
        pipe/barrier synchronization points that order observation.
        """

    # -- management -----------------------------------------------------------
    def reset_counter(self) -> None:
        with self._counter.get_lock():
            self._counter.value = 0

    def zero(self, *names: str) -> None:
        for name in names:
            self._views[name][...] = 0.0

    def close(self) -> None:
        """Unmap segments; the creating parent also unlinks them."""
        for name, shm in list(self._shms.items()):
            try:
                # drop the array views first: SharedMemory.close() refuses
                # while exported buffers are alive
                self._views.pop(name, None)
                shm.close()
                if self._owner:
                    shm.unlink()
            except Exception:
                pass
        self._shms.clear()
        self._views.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
