"""Atomic, CRC-verified checkpointing of single-vector CI iterations.

The paper's method is *designed* for long campaigns: the whole restart state
of the automatically adjusted single-vector scheme is one CI vector plus a
handful of scalars (the retroactive 2x2 bookkeeping of eqs. 14-15).  This
module makes that restart state durable:

* a checkpoint is one ``.npz`` file holding the CI vector and a JSON header
  (method, iteration counters, method-specific scalars, energy/residual
  history),
* writes are atomic: serialize to ``<path>.tmp``, fsync, then
  ``os.replace`` - a crash mid-write never corrupts the previous good
  checkpoint,
* the vector payload carries a CRC32; a mismatch on load (torn write,
  bit-rot) raises :class:`CheckpointError`, and :meth:`Checkpointer.restore`
  degrades it to "no checkpoint" so a solve falls back to a fresh start
  instead of diverging from garbage.

Restarting olsen/auto from a checkpoint replays the *exact* iteration
sequence (floats round-trip losslessly through both the npz payload and the
JSON header), so an interrupted-plus-resumed solve takes no more total
iterations than an uninterrupted one.

Checkpoints are *store-typed* (see :mod:`repro.core.vectors`): the header
records which CI-vector storage backend wrote the state.  A dense restart
handed an out-of-core checkpoint refuses it as a typed mismatch (counted
under ``solver.checkpoint.store_mismatch``) instead of silently pulling a
bigger-than-RAM vector into memory; an mmap-backed restart resumes from a
``<path>.vec.npy`` sidecar that is CRC-verified in streamed chunks and then
memory-mapped read-only, so resume never materializes the full vector.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckpointState", "Checkpointer", "CheckpointError", "FinalStateSaver"]

logger = logging.getLogger(__name__)

_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """The checkpoint file is unreadable or fails its integrity check."""


@dataclass
class CheckpointState:
    """Everything needed to resume an iterative eigensolve."""

    method: str  # "olsen" | "auto" | "davidson"
    iteration: int  # completed iterations
    n_sigma: int  # sigma evaluations so far
    vector: np.ndarray  # current CI iterate (post-update, normalized)
    meta: dict = field(default_factory=dict)  # method-specific scalars
    energies: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    store_kind: str = "dense"  # CI-vector storage backend that wrote this


def _stream_crc32(path: str, chunk: int = 1 << 22) -> int:
    """CRC32 of a file computed in chunks - never the whole file in RAM."""
    crc = 0
    with open(path, "rb") as f:
        while True:
            block = f.read(chunk)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


class Checkpointer:
    """Saves/loads :class:`CheckpointState` at ``path`` atomically.

    ``every`` throttles :meth:`maybe_save` to every N-th iteration (the
    write is one CI vector, so every iteration is usually affordable - the
    point of the single-vector method).  ``telemetry`` (a
    :class:`repro.obs.Telemetry`) counts saves, restores, and rejected
    checkpoints in its metrics registry; None is a strict no-op.

    ``faults`` (a :class:`repro.faults.FaultInjector`) makes the save path
    chaos-testable: when the injector's seeded ``io_fails`` oracle fires,
    :meth:`save` raises :class:`OSError` *before* touching the file - the
    previous good checkpoint survives and the in-flight solve dies exactly
    the way a lost shared filesystem would kill it mid-campaign.  The
    service layer's crash-resume tests drive this hook.
    """

    def __init__(self, path, *, every: int = 1, telemetry=None, faults=None):
        self.path = os.fspath(path)
        self.every = max(1, int(every))
        self.telemetry = telemetry
        self.faults = faults

    def _count(self, name: str) -> None:
        if self.telemetry:
            self.telemetry.registry.counter(name).inc()

    def exists(self) -> bool:
        return os.path.exists(self.path)

    @property
    def sidecar_path(self) -> str:
        """Where an out-of-core checkpoint keeps its vector payload."""
        return self.path + ".vec.npy"

    def clear(self) -> None:
        """Remove the checkpoint file (e.g. after a converged campaign)."""
        if os.path.exists(self.path):
            os.remove(self.path)
        if os.path.exists(self.sidecar_path):
            os.remove(self.sidecar_path)

    def maybe_save(self, state: CheckpointState, *, force: bool = False) -> bool:
        """Save if the iteration falls on the ``every`` grid.

        ``force=True`` bypasses the grid — used by the solvers on
        convergence and at loop exit so the *final* state is always durable
        even when it lands off the ``every`` grid.
        """
        if not force and state.iteration % self.every:
            return False
        self.save(state)
        return True

    def _write_sidecar(self, vec: np.ndarray) -> int:
        """Atomically write the vector to ``<path>.vec.npy``; returns its CRC.

        The payload is streamed back for the CRC in fixed chunks, so the
        save path never needs a second full-vector buffer (``vec`` itself
        may be an ``np.memmap`` whose pages the OS already holds).
        """
        tmp = self.sidecar_path + ".tmp"
        mm = np.lib.format.open_memmap(
            tmp, mode="w+", dtype=np.float64, shape=vec.shape
        )
        mm[...] = vec
        mm.flush()
        del mm
        crc = _stream_crc32(tmp)
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.sidecar_path)
        return crc

    def save(self, state: CheckpointState) -> None:
        """Atomically persist ``state`` (write-tmp, fsync, rename)."""
        if self.faults is not None and self.faults.io_fails(0):
            self._count("solver.checkpoint.io_errors")
            raise OSError(
                f"injected transient I/O error writing checkpoint {self.path!r}"
            )
        vec = np.ascontiguousarray(state.vector)
        out_of_core = state.store_kind == "mmap"
        header = {
            "version": _FORMAT_VERSION,
            "method": state.method,
            "iteration": int(state.iteration),
            "n_sigma": int(state.n_sigma),
            "meta": state.meta,
            "energies": [float(e) for e in state.energies],
            "residual_norms": [float(r) for r in state.residual_norms],
            "shape": list(vec.shape),
            "dtype": str(vec.dtype),
            "store": state.store_kind,
        }
        if out_of_core:
            # vector payload goes to the sidecar so a resume can map it
            # instead of loading it; the npz keeps the header
            header["crc32"] = self._write_sidecar(vec)
            header["vector_file"] = os.path.basename(self.sidecar_path)
            payload = np.zeros(0)
        else:
            header["crc32"] = zlib.crc32(vec.tobytes())
            payload = vec
        blob = json.dumps(header).encode()
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as f:
            np.savez(f, vector=payload, header=np.frombuffer(blob, dtype=np.uint8))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)
        self._count("solver.checkpoint.saves")

    def peek(self) -> dict | None:
        """The checkpoint's JSON header alone (no vector CRC verification).

        Cheap metadata for status displays - method, completed iterations,
        energy/residual history - or None when the file is absent or
        unreadable.  Use :meth:`load`/:meth:`restore` for verified state.
        """
        if not os.path.exists(self.path):
            return None
        try:
            with np.load(self.path) as z:
                header = json.loads(bytes(z["header"].tobytes()).decode())
        except Exception as exc:
            # a file that exists but cannot even surrender its header is
            # corrupt (truncated npz, torn write): a miss, never a crash
            logger.warning("unreadable checkpoint header %r: %s", self.path, exc)
            self._count("solver.checkpoint.peek_failed")
            return None
        # pre-store checkpoints carry no "store" key: they are dense
        header.setdefault("store", "dense")
        return header

    def load(self) -> CheckpointState | None:
        """Load and verify; None if absent, :class:`CheckpointError` if bad.

        An out-of-core ("mmap") checkpoint keeps its vector in the
        ``<path>.vec.npy`` sidecar: the CRC is verified by streaming the
        file in chunks and the vector is returned as a *read-only memory
        map* - resume never loads the full payload into RAM.  Members other
        than the vector and the header (an older format's extra restart
        arrays) are not read.
        """
        if not os.path.exists(self.path):
            return None
        try:
            with np.load(self.path) as z:
                vec = np.array(z["vector"])
                header = json.loads(bytes(z["header"].tobytes()).decode())
        except Exception as exc:  # torn write, not an npz, bad JSON, ...
            raise CheckpointError(f"unreadable checkpoint {self.path!r}: {exc}") from exc
        if header.get("version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path!r} has unsupported version {header.get('version')!r}"
            )
        store_kind = header.get("store", "dense")
        if store_kind == "mmap" and header.get("vector_file"):
            sidecar = self.sidecar_path
            if not os.path.exists(sidecar):
                raise CheckpointError(
                    f"checkpoint {self.path!r} lost its vector sidecar {sidecar!r}"
                )
            if _stream_crc32(sidecar) != header["crc32"]:
                raise CheckpointError(
                    f"checkpoint sidecar {sidecar!r} failed CRC32 verification"
                )
            vec = np.lib.format.open_memmap(sidecar, mode="r")
        elif zlib.crc32(vec.tobytes()) != header["crc32"]:
            raise CheckpointError(f"checkpoint {self.path!r} failed CRC32 verification")
        return CheckpointState(
            method=header["method"],
            iteration=header["iteration"],
            n_sigma=header["n_sigma"],
            vector=vec,
            meta=header["meta"],
            energies=header["energies"],
            residual_norms=header["residual_norms"],
            store_kind=store_kind,
        )

    def restore(
        self, method: str | None = None, *, store_kind: str | None = None
    ) -> CheckpointState | None:
        """Best-effort load for a restart.

        A corrupt checkpoint is logged, counted, and treated as absent (a
        fresh start beats iterating from garbage); a checkpoint written by a
        *different* method contributes its vector as the initial guess but
        none of its scalar state.

        ``store_kind`` declares the restarting solver's CI-vector storage
        backend.  A checkpoint written by a *different* backend is refused
        before its payload is touched - counted under
        ``solver.checkpoint.store_mismatch`` and treated as absent - so a
        dense restart never silently loads an out-of-core vector into RAM.
        """
        if store_kind is not None:
            header = self.peek()
            if header is not None and header["store"] != store_kind:
                logger.warning(
                    "checkpoint %r was written by store %r; %r restart starts fresh",
                    self.path,
                    header["store"],
                    store_kind,
                )
                self._count("solver.checkpoint.store_mismatch")
                return None
        try:
            state = self.load()
        except CheckpointError as exc:
            logger.warning("ignoring bad checkpoint: %s", exc)
            self._count("solver.checkpoint.rejected")
            return None
        if state is None:
            return None
        if method is not None and state.method != method:
            logger.warning(
                "checkpoint %r was written by method %r; resuming %r from its vector only",
                self.path,
                state.method,
                method,
            )
            state = CheckpointState(
                method=method,
                iteration=0,
                n_sigma=0,
                vector=np.array(state.vector),
                store_kind=state.store_kind,
            )
        self._count("solver.checkpoint.restores")
        if self.telemetry:
            self.telemetry.registry.counter("faults.recovered.checkpoint_restart").inc()
        return state


class FinalStateSaver:
    """The solvers' save policy: every iteration on the ``every`` grid, the
    final one always.  ``checkpoint`` is offered each state exactly once per
    iteration (:meth:`save`) - the contract interrupting checkpointers rely
    on - and once more, forced, if the solve ends off the grid
    (:meth:`finish`)."""

    def __init__(self, checkpoint: Checkpointer | None):
        self.checkpoint = checkpoint
        self._unsaved: CheckpointState | None = None

    def save(self, state: CheckpointState, *, converged: bool = False) -> None:
        """The per-iteration save; a converged state bypasses the grid."""
        if self.checkpoint is not None:
            saved = self.checkpoint.maybe_save(state, force=converged)
            self._unsaved = None if saved else state

    def finish(self) -> None:
        """The solve ended on an iteration the grid skipped: keep it."""
        if self._unsaved is not None:
            self.checkpoint.maybe_save(self._unsaved, force=True)
            self._unsaved = None
