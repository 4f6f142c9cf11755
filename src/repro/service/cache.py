"""Content-addressed artifact cache: compiled workspaces and solved results.

Two tiers, two digests (see :mod:`repro.service.jobs`):

* **Workspaces** (in-memory, LRU-bounded to
  :attr:`ArtifactCache.MAX_WORKSPACES`), keyed by ``space_key``: the
  expensive per-problem compilation - the converged SCF (the AO integrals
  are computed once, to reach it), MO integrals, and the
  :class:`~repro.core.problem.CIProblem` whose lazily
  cached excitation tables and :class:`~repro.core.plans.SigmaPlan` ride
  along.  Every job that shares the CI space reuses one workspace, so a
  family of solves (different methods/tolerances on one molecule) pays the
  integral/plan compilation once.  Reusing the *same plan object* is also
  what makes a warm solve bitwise-identical to the cold one that compiled
  it: the kernels consume identical tables either way.

* **Results** (on disk, unbounded), keyed by ``job_key``: the converged
  energy, the scalars of :class:`~repro.core.solver.FCIResult`, and the CI
  vector, persisted as one atomic CRC-verified ``.npz`` (the checkpoint
  file discipline: write-tmp, fsync, rename).  A result hit answers a
  resubmitted job without a solve; the stored energy/vector are
  the exact float64s the original solve produced, so a hit is
  bitwise-identical to the solve it memoized.

A corrupt result file (torn write, bit-rot) fails its CRC and is treated
as a miss and deleted - the job simply solves again.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["ArtifactCache", "Workspace"]

logger = logging.getLogger(__name__)

_RESULT_VERSION = 1


@dataclass
class Workspace:
    """One compiled CI problem family: SCF + MO integrals + problem (+ plan).

    ``store_kind`` records which CI-vector storage backend the job that
    compiled it solves on.  It is bookkeeping, not identity: the compiled
    tables are storage-agnostic, so a dense and an mmap job on one
    molecule share one workspace.
    """

    space_key: str
    scf: object
    mo: object
    problem: object
    store_kind: str = "dense"


class ArtifactCache:
    """Digest-keyed store for workspaces (memory) and results (disk).

    ``root`` is the directory results persist under (``<root>/results``).
    """

    #: LRU bound on the workspace tier - a workspace holds dense W/G
    #: supermatrices, so the bound is a real memory ceiling
    MAX_WORKSPACES = 8

    def __init__(self, root):
        self.results_dir = os.path.join(os.fspath(root), "results")
        os.makedirs(self.results_dir, exist_ok=True)
        self._workspaces: OrderedDict[str, Workspace] = OrderedDict()
        self._results_mem: dict[str, tuple[dict, np.ndarray]] = {}
        self._lock = threading.RLock()
        self.counts = {
            "workspace_hits": 0,
            "workspace_misses": 0,
            "workspace_evictions": 0,
            "result_hits": 0,
            "result_misses": 0,
            "result_corrupt": 0,
        }

    def _result_path(self, job_key: str) -> str:
        return os.path.join(self.results_dir, f"{job_key}.npz")

    # -- workspace tier ------------------------------------------------------
    def workspace(self, space_key: str, builder) -> tuple[Workspace, bool]:
        """The workspace for ``space_key``, building it on a miss.

        ``builder`` is a zero-argument callable returning a
        :class:`Workspace`; it runs outside the cache lock.  Two jobs
        building one key at once are benign (last one wins): workspaces are
        content-addressed and interchangeable.  Returns ``(workspace,
        hit)``.
        """
        with self._lock:
            ws = self._workspaces.get(space_key)
            if ws is not None:
                self._workspaces.move_to_end(space_key)
                self.counts["workspace_hits"] += 1
                return ws, True
        ws = builder()
        with self._lock:
            self._workspaces[space_key] = ws
            self._workspaces.move_to_end(space_key)
            self.counts["workspace_misses"] += 1
            while len(self._workspaces) > self.MAX_WORKSPACES:
                evicted, _ = self._workspaces.popitem(last=False)
                self.counts["workspace_evictions"] += 1
                logger.info("evicted workspace %s (LRU)", evicted[:12])
        return ws, False

    # -- result tier ---------------------------------------------------------
    def put_result(self, job_key: str, meta: dict, vector: np.ndarray) -> None:
        """Persist a converged result atomically under its job key."""
        vec = np.ascontiguousarray(vector)
        with self._lock:
            self._results_mem[job_key] = (dict(meta), vec)
        header = {
            "version": _RESULT_VERSION,
            "meta": meta,
            "shape": list(vec.shape),
            "crc32": zlib.crc32(vec.tobytes()),
        }
        blob = json.dumps(header).encode()
        path = self._result_path(job_key)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            np.savez(f, vector=vec, header=np.frombuffer(blob, dtype=np.uint8))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    def get_result(self, job_key: str) -> tuple[dict, np.ndarray] | None:
        """The memoized ``(meta, vector)`` for a job key, or None."""
        with self._lock:
            hit = self._results_mem.get(job_key)
            if hit is not None:
                self.counts["result_hits"] += 1
                return hit
        loaded = self._load_result(job_key)
        with self._lock:
            if loaded is None:
                self.counts["result_misses"] += 1
                return None
            self._results_mem[job_key] = loaded
            self.counts["result_hits"] += 1
            return loaded

    def _load_result(self, job_key: str):
        path = self._result_path(job_key)
        if not os.path.exists(path):
            return None
        try:
            # np.load leaks the file it opened when the zip is truncated
            with open(path, "rb") as f, np.load(f) as z:
                vec = np.array(z["vector"])
                header = json.loads(bytes(z["header"].tobytes()).decode())
            if header.get("version") != _RESULT_VERSION:
                raise ValueError(f"unsupported result version {header.get('version')!r}")
            if zlib.crc32(vec.tobytes()) != header["crc32"]:
                raise ValueError("CRC32 mismatch")
        except Exception as exc:
            logger.warning("dropping corrupt cached result %s: %s", path, exc)
            with self._lock:
                self.counts["result_corrupt"] += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        return header["meta"], vec

    def drop_result(self, job_key: str) -> None:
        """Invalidate a cached result (the ``force=True`` resubmit path)."""
        with self._lock:
            self._results_mem.pop(job_key, None)
        try:
            os.remove(self._result_path(job_key))
        except FileNotFoundError:
            pass

    def stats(self) -> dict:
        with self._lock:
            return {**self.counts, "workspaces": len(self._workspaces)}
