"""DDI-style distributed arrays over the simulated SHMEM engine.

The Distributed Data Interface (paper ref. [17], a Global Arrays derivative)
provides one-sided access to block-distributed arrays.  On the Cray-X1 it
maps to SHMEM; the two operations the FCI code uses are

* DDI_GET - one-sided gather of remote rows,
* DDI_ACC - one-sided accumulate, implemented exactly as the paper
  describes: acquire the remote node's mutex, SHMEM_GET the patch, add
  locally, SHMEM_PUT it back, SHMEM_QUIET, release the mutex - which is why
  "the remote accumulation actually involves twice the amount of
  communication in remote get",

plus the dynamic-load-balancing counter served by SHMEM atomic fetch-add
(paper: SHMEM_SWAP).

All methods are generators intended for ``yield from`` inside rank programs.

Robustness: when a :class:`repro.faults.FaultInjector` is attached, the
engine may resolve a one-sided op to :data:`DROPPED`; every get/put here
then retries with exponential backoff (charged to the virtual clock as
``*:retry`` compute, counted under ``faults.recovered.retried_*``) up to the
plan's retry budget before raising :class:`DDICommError`.  Retries inside
the DDI_ACC protocol are safe because the node mutex is held throughout.
Given a ``tag``, an accumulate also writes a per-tag commit flag *atomically*
with the data (one multi-segment put), making it idempotent: a task requeued
after its owner died mid-protocol lands exactly once.
"""

from __future__ import annotations

import numpy as np

from .engine import DROPPED, Proc, SymmetricHeap

__all__ = ["DDIArray", "DynamicLoadBalancer", "DDICommError", "block_ranges"]


class DDICommError(RuntimeError):
    """A one-sided op kept failing after the full retry budget."""


def block_ranges(n_items: int, n_blocks: int) -> list[tuple[int, int]]:
    """Contiguous near-even split of range(n_items) into n_blocks pieces."""
    base, extra = divmod(n_items, n_blocks)
    out = []
    start = 0
    for b in range(n_blocks):
        size = base + (1 if b < extra else 0)
        out.append((start, start + size))
        start += size
    return out


class DDIArray:
    """A 2-D array distributed over ranks by contiguous row blocks."""

    def __init__(
        self,
        heap: SymmetricHeap,
        name: str,
        n_rows: int,
        n_cols: int,
        *,
        numeric: bool = True,
        msps_per_node: int = 4,
        faults=None,
        store=None,
    ):
        """``store`` (a :class:`repro.core.vectors.CIVectorStore`
        of shape (n_rows, n_cols)) backs the distributed array: every rank's
        segment becomes a row-block *view* into the store's array, so an
        out-of-core ``MmapStore`` puts the whole distributed vector on disk
        while the one-sided verbs operate on it unchanged (an ``np.memmap``
        slice is an ndarray).  None keeps plain per-rank heap arrays."""
        self.heap = heap
        self.name = name
        self.msps_per_node = max(1, int(msps_per_node))
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.numeric = numeric
        self.faults = faults
        self.store = store
        self.ranges = block_ranges(self.n_rows, heap.n_ranks)
        self._row_owner = np.empty(self.n_rows, dtype=np.int64)
        for r, (lo, hi) in enumerate(self.ranges):
            self._row_owner[lo:hi] = r
        if store is not None:
            backing = store.as_ndarray().reshape(self.n_rows, self.n_cols)
            heap.alloc_segments(name, [backing[lo:hi] for lo, hi in self.ranges])
        else:
            heap.alloc_per_rank(
                name,
                [(hi - lo, self.n_cols) for lo, hi in self.ranges],
                numeric=numeric,
            )
        # one mutex per *node* (paper: DDI_ACC locks the remote node);
        # the id block is heap-unique so two simulations never collide.
        self._mutex_base = heap.next_mutex_base()
        self.tags_name: str | None = None
        self.n_tags = 0

    # -- local access -------------------------------------------------------
    def local_block(self, rank: int) -> np.ndarray | None:
        return self.heap.segment(self.name, rank)

    def local_range(self, rank: int) -> tuple[int, int]:
        return self.ranges[rank]

    def owner_of(self, row: int) -> int:
        return int(self._row_owner[row])

    def node_mutex(self, owner: int) -> int:
        return self._mutex_base + owner // self.msps_per_node

    def set_local(self, rank: int, data: np.ndarray) -> None:
        blk = self.local_block(rank)
        if blk is not None:
            blk[...] = data

    def _windows(self, rows=None, cols=None):
        """Per-owner windows ``(owner, key, nbytes, positions)`` of a row
        list or of the column block ``cols = (lo, hi)``: ``key`` indexes the
        owner's segment (None in trace mode), ``positions`` the caller's
        buffer.  The one walk over owners every one-sided verb uses."""
        if rows is None:
            width = cols[1] - cols[0]
            key = (slice(None), slice(*cols)) if self.numeric else None
            return [
                (owner, key, (hi - lo) * width * 8.0, slice(lo, hi))
                for owner, (lo, hi) in enumerate(self.ranges)
                if hi > lo
            ]
        rows = np.asarray(rows, dtype=np.int64)
        owners = self._row_owner[rows]
        order = np.argsort(owners, kind="stable")
        rows_sorted = rows[order]
        bounds = np.searchsorted(owners[order], np.arange(self.heap.n_ranks + 1))
        windows = []
        for r in range(self.heap.n_ranks):
            lo, hi = bounds[r], bounds[r + 1]
            if hi > lo:
                local = rows_sorted[lo:hi] - self.ranges[r][0]
                key = (local, slice(None)) if self.numeric else None
                windows.append((r, key, local.size * self.n_cols * 8.0, order[lo:hi]))
        return windows

    # -- retry machinery ----------------------------------------------------
    def _source(self, owner: int, key):
        """Reader of the owner's window ``key`` (None in trace mode)."""
        if not self.numeric:
            return None
        return lambda: self.local_block(owner)[key]

    def _payload_bad(self, result, kind: str, source=None) -> bool:
        """A get payload non-finite where its source is finite was corrupted
        in flight: refetch.

        ``source()`` returns the owner's window the get read (numeric mode).
        Where the source itself is non-finite - say a finite bit-flip that
        overflowed a DGEMM and was accumulated - the payload is a faithful
        copy: that is not a transport fault, and no refetch could fix it.
        Without a source every non-finite payload counts as corrupt.  Only
        consulted with an injector attached, so the fault-free path never
        pays the finiteness scan.  (Bit-flips that stay finite are invisible
        here by design - catching those is the solvers' watchdog's job, same
        as on real hardware.)
        """
        if kind != "get" or not isinstance(result, np.ndarray):
            return False
        bad = ~np.isfinite(result)
        if not bad.any():
            return False
        if source is not None and not np.isfinite(source()[bad]).any():
            return False
        self.faults.note_recovered("refetched_corrupt")
        return True

    def _reliable(self, proc: Proc, op_factory, kind: str, label: str, source=None):
        """Issue ``op_factory()`` until it succeeds (generator).

        With no injector attached a drop is impossible, so the fault-free
        path costs one identity check per op.  Each retry backs off
        exponentially in virtual time (visible in the trace as ``*:retry``
        compute) and is counted under ``faults.recovered.retried_<kind>``;
        get payloads corrupted in flight (see :meth:`_payload_bad`, which
        reads ``source``) are refetched on the same budget.
        """
        result = yield op_factory()
        fi = self.faults
        if result is not DROPPED and (
            fi is None or not self._payload_bad(result, kind, source)
        ):
            return result
        attempts = 0
        while True:
            attempts += 1
            if fi is None or attempts > fi.max_retries:
                raise DDICommError(
                    f"{kind} on {self.name!r} still failing after {attempts - 1} retries"
                )
            backoff = fi.retry_backoff * (2.0 ** (attempts - 1))
            yield proc.compute(backoff, label=f"{label}:retry")
            result = yield op_factory()
            if result is DROPPED:
                continue
            if not self._payload_bad(result, kind, source):
                break
        fi.note_recovered(f"retried_{kind}", attempts)
        return result

    # -- one-sided operations (generators; use with ``yield from``) ---------
    def _get(self, proc: Proc, windows, shape, label: str):
        """DDI_GET of ``windows`` into a fresh ``shape`` buffer."""
        out = np.empty(shape) if self.numeric else None
        yield proc.span_begin("DDI_GET", label=label)
        for owner, key, nbytes, positions in windows:
            data = yield from self._reliable(
                proc,
                lambda: proc.get(owner, self.name, key=key, n_bytes=nbytes, label=label),
                "get",
                label,
                self._source(owner, key),
            )
            if out is not None:
                out[positions] = data
        yield proc.span_end()
        return out

    def iget_rows(self, proc: Proc, rows, label: str = "gather"):
        """DDI_GET of a row list; returns (len(rows), n_cols) in numeric mode."""
        shape = (np.size(rows), self.n_cols)
        return (yield from self._get(proc, self._windows(rows=rows), shape, label))

    def iget_col_block(self, proc: Proc, col_lo: int, col_hi: int, label: str = "gather"):
        """DDI_GET of a full column block (all rows) - the distributed
        transpose building block; returns (n_rows, col_hi-col_lo) numeric."""
        shape = (self.n_rows, col_hi - col_lo)
        return (yield from self._get(proc, self._windows(cols=(col_lo, col_hi)), shape, label))

    def _acc(self, proc: Proc, windows, data, label: str, tag=None, add: bool = True):
        """The paper's DDI_ACC on each owner window: lock the owner's node
        mutex, get the patch, add locally, put it back, quiet, unlock.

        ``tag`` makes the update exactly-once: the owner's commit flag for
        ``tag`` is read under the mutex (set -> nothing to do), and the data
        and the flag go out in one multi-segment put, so a commit either
        fully happened or not at all - a task requeued after its owner died
        mid-protocol lands once.  ``add=False`` overwrites instead of
        accumulating (no get): for values that are recomputable and
        idempotent by construction.
        """
        tags = self._require_tags() if tag is not None else None
        for owner, key, nbytes, positions in windows:
            mutex = self.node_mutex(owner)
            yield proc.lock(mutex, label=label)
            if tag is not None:
                flag = yield from self._reliable_tags(
                    proc,
                    lambda: proc.get(owner, tags, key=slice(tag, tag + 1), n_bytes=8.0, label=label),
                    label,
                )
                if flag[0] != 0.0:
                    if self.faults is not None:
                        self.faults.note_recovered("acc_dedup")
                    yield proc.unlock(mutex, label=label)
                    continue
            value = data[positions] if self.numeric and data is not None else None
            if add:
                remote = yield from self._reliable(
                    proc,
                    lambda: proc.get(owner, self.name, key=key, n_bytes=nbytes, label=label),
                    "get",
                    label,
                    self._source(owner, key),
                )
                if value is not None:
                    value = remote + value
            yield from self._reliable(
                proc,
                lambda: (
                    proc.put(owner, self.name, key=key, value=value, n_bytes=nbytes, label=label)
                    if tag is None
                    else proc.putm(
                        owner,
                        [(self.name, key, value), (tags, slice(tag, tag + 1), 1.0)],
                        n_bytes=nbytes + 8.0,
                        label=label,
                    )
                ),
                "put",
                label,
            )
            yield proc.quiet(label=label)
            yield proc.unlock(mutex, label=label)

    def iacc_rows(self, proc: Proc, rows, data, label: str = "accumulate", tag=None):
        """DDI_ACC of a row list (exactly-once per owner when ``tag`` is given)."""
        yield proc.span_begin("DDI_ACC", label=label)
        yield from self._acc(proc, self._windows(rows=rows), data, label, tag)
        yield proc.span_end()

    def iacc_col_block(
        self, proc: Proc, col_lo: int, col_hi: int, data, label: str = "accumulate", tag=None
    ):
        """DDI_ACC of a full column block into every owner's local rows
        (exactly-once per owner when ``tag`` is given)."""
        yield proc.span_begin("DDI_ACC", label=label)
        yield from self._acc(proc, self._windows(cols=(col_lo, col_hi)), data, label, tag)
        yield proc.span_end()

    def iput_block_once(self, proc: Proc, owner: int, value, tag: int, label: str = "publish"):
        """Exactly-once *overwrite* of ``owner``'s whole local block.

        Any rank can publish a recomputable block (e.g. a rank's beta-beta
        sigma rows) on the owner's behalf, and the atomic data+flag put
        means a half-dead publisher never leaves a flag without its data.
        """
        lo, hi = self.ranges[owner]
        window = (owner, None, (hi - lo) * self.n_cols * 8.0, slice(None))
        yield from self._acc(proc, [window], value, label, tag, add=False)

    # -- commit tags (exactly-once accumulation) ----------------------------
    def alloc_commit_tags(self, n_tags: int) -> None:
        """Allocate per-(tag, owner) commit flags on every rank's heap.

        Tag ``t`` for owner ``o`` lives at ``o``'s segment index ``t``; it is
        written atomically *with* the accumulated data (one multi-segment
        put under the node mutex), so a commit either fully happened or not
        at all - the invariant behind exactly-once task requeue.
        """
        self.tags_name = f"{self.name}::tags"
        self.n_tags = int(n_tags)
        self.heap.alloc(self.tags_name, (max(1, self.n_tags),), dtype=np.float64)

    def _require_tags(self) -> str:
        if self.tags_name is None:
            raise RuntimeError("call alloc_commit_tags() before tagged (exactly-once) operations")
        return self.tags_name

    def _reliable_tags(self, proc: Proc, op_factory, label: str):
        """Reliable get of commit flags, refetching implausible values.

        A stored flag is exactly 0.0 or 1.0; any other value (a bit-flipped
        read) must not drive a commit decision - acting on a corrupted flag
        read is how double accumulation sneaks in.
        """
        fi = self.faults
        attempts = 0
        while True:
            raw = yield from self._reliable(proc, op_factory, "get", label)
            if fi is None or np.isin(raw, (0.0, 1.0)).all():
                return raw
            fi.note_recovered("refetched_corrupt")
            attempts += 1
            if attempts > fi.max_retries:
                raise DDICommError(
                    f"commit tags of {self.name!r} unreadable after {attempts - 1} refetches"
                )
            yield proc.compute(fi.retry_backoff, label=f"{label}:retry")

    def iget_tags(self, proc: Proc, owners=None, label: str = "commit-tags"):
        """Gather all commit flags from ``owners`` (default: every rank).

        Returns an (n_owners, n_tags) boolean array in owner order.  Only
        meaningful in a write-quiescent window (between barriers) - callers
        use it to compute an identical uncommitted-work list on every rank.
        """
        tags = self._require_tags()
        owners = list(range(self.heap.n_ranks)) if owners is None else list(owners)
        out = np.zeros((len(owners), max(1, self.n_tags)), dtype=bool)
        yield proc.span_begin("DDI_GET", label=label)
        for i, owner in enumerate(owners):
            raw = yield from self._reliable_tags(
                proc,
                lambda: proc.get(owner, tags, key=slice(None), n_bytes=8.0 * max(1, self.n_tags), label=label),
                label,
            )
            out[i] = raw != 0.0
        yield proc.span_end()
        return out


class DynamicLoadBalancer:
    """Centralized task counter (manager/worker, paper section 3.3).

    The counter lives on rank 0 and is advanced with the engine's atomic
    fetch-add, which serializes competing requests at rank 0's memory port -
    reproducing the contention behaviour of the SHMEM_SWAP-based DDI
    implementation.  The fetch-add is never dropped by fault injection
    (SHMEM atomics are reliable), so the counter needs no retry path.
    """

    def __init__(self, heap: SymmetricHeap, name: str | None = None):
        self.name = name or heap.unique_name("_dlb_")
        heap.alloc(self.name, (1,), dtype=np.int64, numeric=True)
        self.heap = heap

    def reset(self) -> None:
        for r in range(self.heap.n_ranks):
            seg = self.heap.segment(self.name, r)
            if seg is not None:
                seg[0] = 0

    def inext(self, proc: Proc, label: str = "dlb"):
        """Fetch the next global task number (generator)."""
        old = yield proc.fadd(0, self.name, key=0, value=1, label=label)
        return int(old)
