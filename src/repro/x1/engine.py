"""Discrete-event SPMD engine for the simulated Cray-X1.

Each MSP rank runs a Python generator ("rank program") that yields
:class:`Op` requests - compute for some virtual time, one-sided get/put,
atomic fetch-add, mutex lock/unlock, barrier, memory fence (quiet), or
shared-filesystem I/O.  The engine advances per-rank virtual clocks, resolves
contention (remote-memory port occupancy, mutex queues, the serialized
dynamic-load-balancing counter, shared I/O bandwidth) in virtual-time order,
and gathers per-rank statistics.

Numeric mode and trace mode share this engine: ops carry an optional real
payload (numpy arrays read from / written to the symmetric heap) so the very
same schedule either performs the real arithmetic (validated against the
serial kernels) or only advances clocks at paper scale.

Fault semantics (``faults`` - a :class:`repro.faults.FaultInjector`):

* **rank death** is fail-stop at op granularity: an op issued before the
  death time completes (its heap side effects were applied when it was
  issued), but the rank issues nothing after it.  Death releases the rank
  from barrier accounting and mutex wait queues; its heap segments stay
  readable (node memory outlives the processor).
* **mutex leases**: every grant is timestamped; when the owner dies, the
  engine schedules a revocation at ``max(death, grant + lease)`` and hands
  the lock to the next live waiter - a dead rank can never deadlock the
  machine.
* **dropped / delayed / corrupted transfers** apply to *remote* one-sided
  ops only; a dropped (or timed-out) op charges its timeout and resolves to
  the :data:`DROPPED` sentinel so the DDI layer can retry.  The atomic
  fetch-add (the DLB counter) is never dropped, matching SHMEM semantics.

With ``faults=None`` (the default) none of these paths exist: event order,
virtual times, and numeric results are bit-identical to the fault-free
engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

import numpy as np

from .machine import X1Config

__all__ = ["Op", "SymmetricHeap", "RankStats", "Engine", "Proc", "DROPPED"]

_DEFAULT_MUTEX_LEASE = 250e-6


class _Dropped:
    """Sentinel resolved from a one-sided op the network lost."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DROPPED"

    def __bool__(self) -> bool:
        return False


DROPPED = _Dropped()


@dataclass
class Op:
    """One request yielded by a rank program."""

    kind: str
    target: int = -1
    name: str = ""
    key: Any = None
    value: Any = None
    n_bytes: float = 0.0
    seconds: float = 0.0
    mutex: int = -1
    write: bool = False
    label: str = ""


class SymmetricHeap:
    """Named per-rank arrays (SHMEM-style symmetric allocation).

    In numeric mode every rank's segment is a real numpy array; in trace mode
    segments tagged numeric=False exist only as shapes.  Small control
    arrays (locks, counters) are always real so synchronization semantics are
    exact in both modes.

    Mutex ids are allocated *per heap* (see :meth:`next_mutex_base`) so two
    independent simulations in one process can never collide on a lock.
    """

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self._arrays: dict[str, list[np.ndarray | None]] = {}
        self._shapes: dict[str, tuple[tuple[int, ...], Any]] = {}
        self._next_mutex = 1000
        self._next_name_id = 0

    def next_mutex_base(self) -> int:
        """A fresh, heap-unique base for a block of up to 10000 mutex ids."""
        base = self._next_mutex * 10000
        self._next_mutex += 1
        return base

    def unique_name(self, prefix: str) -> str:
        """A heap-unique segment name (for control arrays like DLB counters)."""
        name = f"{prefix}{self._next_name_id}"
        self._next_name_id += 1
        return name

    def alloc(self, name: str, shape, dtype=np.float64, numeric: bool = True) -> None:
        if name in self._arrays:
            raise KeyError(f"heap segment {name!r} already allocated")
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        self._shapes[name] = (shape, dtype)
        if numeric:
            self._arrays[name] = [np.zeros(shape, dtype=dtype) for _ in range(self.n_ranks)]
        else:
            self._arrays[name] = [None] * self.n_ranks

    def alloc_per_rank(self, name: str, shapes: Iterable, dtype=np.float64, numeric: bool = True) -> None:
        """Allocate with a different shape on every rank (block-distributed)."""
        shapes = list(shapes)
        if len(shapes) != self.n_ranks:
            raise ValueError("need one shape per rank")
        if name in self._arrays:
            raise KeyError(f"heap segment {name!r} already allocated")
        self._shapes[name] = (tuple(shapes[0]) if shapes else (), dtype)
        if numeric:
            self._arrays[name] = [np.zeros(s, dtype=dtype) for s in shapes]
        else:
            self._arrays[name] = [None] * self.n_ranks

    def alloc_segments(self, name: str, segments: list[np.ndarray]) -> None:
        """Install externally-owned arrays as the per-rank segments.

        The storage-layer hook: a :class:`repro.x1.ddi.DDIArray` backed by a
        CI-vector store hands row-block views of the store's array here, so
        the simulated machine's "distributed memory" can live wherever the
        store puts it (RAM, or an mmapped file for out-of-core runs).  The
        caller keeps ownership; the heap never frees these."""
        if len(segments) != self.n_ranks:
            raise ValueError("need one segment per rank")
        if name in self._arrays:
            raise KeyError(f"heap segment {name!r} already allocated")
        self._shapes[name] = (
            tuple(segments[0].shape) if segments else (),
            segments[0].dtype if segments else np.float64,
        )
        self._arrays[name] = list(segments)

    def segment(self, name: str, rank: int) -> np.ndarray | None:
        return self._arrays[name][rank]

    def is_numeric(self, name: str) -> bool:
        return self._arrays[name][0] is not None

    def read(self, name: str, rank: int, key) -> np.ndarray | None:
        arr = self._arrays[name][rank]
        if arr is None:
            return None
        return np.array(arr[key] if key is not None else arr, copy=True)

    def write(self, name: str, rank: int, key, value) -> None:
        arr = self._arrays[name][rank]
        if arr is None:
            return
        if key is None:
            arr[...] = value
        else:
            arr[key] = value

    def add(self, name: str, rank: int, key, value) -> None:
        arr = self._arrays[name][rank]
        if arr is None:
            return
        if key is None:
            arr[...] += value
        else:
            arr[key] += value


@dataclass
class RankStats:
    """Per-rank virtual-time accounting."""

    compute: float = 0.0
    communication: float = 0.0
    wait: float = 0.0  # contention: lock queues, port busy, barrier skew
    io: float = 0.0
    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    flops: float = 0.0
    finish_time: float = 0.0
    last_heartbeat: float = 0.0  # virtual time of the rank's latest completed op
    phase_times: dict[str, float] = field(default_factory=dict)
    phase_flops: dict[str, float] = field(default_factory=dict)

    def charge_phase(self, label: str, dt: float, flops: float = 0.0) -> None:
        if label:
            self.phase_times[label] = self.phase_times.get(label, 0.0) + dt
            if flops:
                self.phase_flops[label] = self.phase_flops.get(label, 0.0) + flops


class Proc:
    """Op constructors bound to one rank (syntactic sugar for programs)."""

    def __init__(self, rank: int, n_ranks: int):
        self.rank = rank
        self.n_ranks = n_ranks

    @staticmethod
    def compute(seconds: float, flops: float = 0.0, label: str = "", name: str = "") -> Op:
        return Op(kind="compute", seconds=float(seconds), value=flops, label=label, name=name)

    @staticmethod
    def get(target: int, name: str, key=None, n_bytes: float = 0.0, label: str = "") -> Op:
        return Op(kind="get", target=target, name=name, key=key, n_bytes=n_bytes, label=label)

    @staticmethod
    def put(target: int, name: str, key=None, value=None, n_bytes: float = 0.0, label: str = "") -> Op:
        return Op(kind="put", target=target, name=name, key=key, value=value, n_bytes=n_bytes, label=label)

    @staticmethod
    def putm(target: int, writes, n_bytes: float = 0.0, label: str = "") -> Op:
        """Atomic multi-segment put: all of ``writes`` = [(name, key, value),
        ...] land together or (under injected faults) not at all - the unit
        of idempotent data+commit-flag publication."""
        return Op(kind="putm", target=target, value=list(writes), n_bytes=n_bytes, label=label)

    @staticmethod
    def fadd(target: int, name: str, key: int = 0, value: float = 1, label: str = "") -> Op:
        return Op(kind="fadd", target=target, name=name, key=key, value=value, label=label)

    @staticmethod
    def lock(mutex: int, label: str = "") -> Op:
        return Op(kind="lock", mutex=mutex, label=label)

    @staticmethod
    def unlock(mutex: int, label: str = "") -> Op:
        return Op(kind="unlock", mutex=mutex, label=label)

    @staticmethod
    def barrier(label: str = "") -> Op:
        return Op(kind="barrier", label=label)

    @staticmethod
    def quiet(label: str = "") -> Op:
        return Op(kind="quiet", label=label)

    @staticmethod
    def io(n_bytes: float, write: bool, label: str = "io") -> Op:
        return Op(kind="io", n_bytes=n_bytes, write=write, label=label)

    @staticmethod
    def failures(label: str = "heartbeat") -> Op:
        """Heartbeat probe: resolves to the frozenset of dead ranks."""
        return Op(kind="failures", label=label)

    @staticmethod
    def span_begin(name: str, label: str = "") -> Op:
        """Open a named tracer span (zero virtual time; no-op untraced)."""
        return Op(kind="span_begin", name=name, label=label)

    @staticmethod
    def span_end() -> Op:
        """Close the innermost tracer span (zero virtual time)."""
        return Op(kind="span_end")


Program = Callable[[Proc, SymmetricHeap], Generator[Op, Any, None]]


class Engine:
    """Runs P rank programs to completion in virtual time.

    ``tracer`` (any :class:`repro.obs.tracer.SpanTracer`) receives one span
    per op in virtual time - compute, SHMEM get/put/fadd, mutex waits,
    barrier skew, I/O - plus the DDI protocol spans opened with
    ``span_begin``/``span_end`` ops.  The default (None) emits nothing and
    costs a single identity check per op.

    ``faults`` (any :class:`repro.faults.FaultInjector`) perturbs the run
    with the injector's plan; None (the default) leaves the schedule and
    every numeric result bit-identical to the fault-free engine.
    """

    def __init__(self, config: X1Config, heap: SymmetricHeap, tracer=None, faults=None):
        if heap.n_ranks != config.n_msps:
            raise ValueError("heap rank count must match config.n_msps")
        if faults is not None:
            plan = faults.plan
            beyond = sorted(
                r for r in {*plan.deaths, *(w.rank for w in plan.stalls)} if r >= config.n_msps
            )
            if beyond:
                # a fault aimed at a rank that does not exist injects nothing
                # and the run would report a recovery it never exercised
                raise ValueError(
                    f"fault plan names rank(s) {beyond} but the machine has "
                    f"{config.n_msps} MSPs"
                )
        self.config = config
        self.heap = heap
        self.tracer = tracer
        self.faults = faults
        # an injector whose plan injects nothing is bypassed entirely on the
        # per-op hot path - attached-but-idle hooks must cost one None check,
        # exactly like faults=None
        self._fi_active = (
            faults
            if faults is not None
            and (faults.plan.any_faults() or faults.plan.op_timeout is not None)
            else None
        )
        self.n_ranks = config.n_msps
        self.stats = [RankStats() for _ in range(self.n_ranks)]
        self._port_free = [0.0] * self.n_ranks  # remote-memory port occupancy
        self._io_free = 0.0  # shared filesystem
        self._mutex_owner: dict[int, int] = {}
        self._mutex_granted_at: dict[int, float] = {}
        self._mutex_queue: dict[int, list[tuple[float, int, str]]] = {}
        self._barrier_waiting: list[tuple[float, int]] = []
        self._done = [False] * self.n_ranks
        self._dead = [False] * self.n_ranks
        self._alive = self.n_ranks
        self._n_events = 0
        # fault events: (time, seq, kind, payload) with kind "death"/"revoke"
        self._fault_events: list[tuple[float, int, str, int]] = []
        self._fault_seq = 0

    @property
    def dead_ranks(self) -> frozenset[int]:
        return frozenset(r for r in range(self.n_ranks) if self._dead[r])

    def _push_fault_event(self, t: float, kind: str, payload: int) -> None:
        heapq.heappush(self._fault_events, (t, self._fault_seq, kind, payload))
        self._fault_seq += 1

    def run(self, programs: list[Program]) -> list[RankStats]:
        """Execute one program per rank; returns per-rank statistics."""
        if len(programs) != self.n_ranks:
            raise ValueError("need exactly one program per rank")
        gens = []
        for r, prog in enumerate(programs):
            gens.append(prog(Proc(r, self.n_ranks), self.heap))
        clocks = [0.0] * self.n_ranks
        results: list[Any] = [None] * self.n_ranks
        queue: list[tuple[float, int, int]] = []
        seq = 0
        for r in range(self.n_ranks):
            heapq.heappush(queue, (0.0, seq, r))
            seq += 1
        if self.faults is not None:
            for r in range(self.n_ranks):
                dt = self.faults.death_time(r)
                if dt is not None:
                    self._push_fault_event(float(dt), "death", r)

        while queue or self._fault_events:
            # injected events (deaths, lease revocations) fire in time order
            # before any program op at the same or a later virtual time;
            # without faults this loop never runs.
            while self._fault_events and (
                not queue or self._fault_events[0][0] <= queue[0][0]
            ):
                t, _, kind, payload = heapq.heappop(self._fault_events)
                if kind == "death":
                    self._kill_rank(payload, t, queue, clocks, results)
                else:
                    self._revoke_mutex(payload, t, queue, clocks, results)
            if not queue:
                continue
            clock, _, rank = heapq.heappop(queue)
            if self._dead[rank]:
                continue  # the rank died while this op was in flight
            clocks[rank] = clock
            try:
                op = gens[rank].send(results[rank])
            except StopIteration:
                self._done[rank] = True
                self.stats[rank].finish_time = clock
                self._alive -= 1
                if self._barrier_waiting and len(self._barrier_waiting) == self._alive:
                    self._release_barrier(queue, clocks, results)
                    seq += len(clocks)
                continue
            results[rank] = None
            self._n_events += 1
            requeue_at = self._handle(op, rank, clocks, results, queue)
            if requeue_at is not None:
                self.stats[rank].last_heartbeat = requeue_at
                heapq.heappush(queue, (requeue_at, seq, rank))
                seq += 1
        if self._alive > 0:
            raise RuntimeError(
                f"deadlock: {self._alive} ranks blocked (barrier/mutex mismatch)"
            )
        return self.stats

    # -- fault machinery ---------------------------------------------------
    def _kill_rank(self, rank: int, t: float, queue, clocks, results) -> None:
        """Fail-stop ``rank`` at virtual time ``t`` (no-op if it finished)."""
        if self._done[rank] or self._dead[rank]:
            return
        self._dead[rank] = True
        self._done[rank] = True
        self.stats[rank].finish_time = t
        self._alive -= 1
        if self.faults is not None:
            self.faults.note_injected("rank_death")
        if self.tracer is not None:
            self.tracer.instant(rank, "fault:rank_death", t)
        # the corpse neither waits on locks nor counts toward barriers
        for mid in list(self._mutex_queue):
            self._mutex_queue[mid] = [
                w for w in self._mutex_queue[mid] if w[1] != rank
            ]
        lease = (
            self.faults.mutex_lease
            if self.faults is not None and self.faults.mutex_lease is not None
            else _DEFAULT_MUTEX_LEASE
        )
        for mid, owner in list(self._mutex_owner.items()):
            if owner == rank:
                grant_t = self._mutex_granted_at.get(mid, t)
                self._push_fault_event(max(t, grant_t + lease), "revoke", mid)
        was_waiting = any(r == rank for _, r in self._barrier_waiting)
        if was_waiting:
            self._barrier_waiting = [
                (w, r) for w, r in self._barrier_waiting if r != rank
            ]
        if self._barrier_waiting and len(self._barrier_waiting) == self._alive:
            self._release_barrier(queue, clocks, results)

    def _revoke_mutex(self, mid: int, t: float, queue, clocks, results) -> None:
        """Expire the lease on a mutex held by a dead rank; grant the next
        live waiter so the machine keeps making progress."""
        owner = self._mutex_owner.get(mid)
        if owner is None or not self._dead[owner]:
            return  # released naturally (or re-granted) before lease expiry
        del self._mutex_owner[mid]
        self._mutex_granted_at.pop(mid, None)
        if self.faults is not None:
            self.faults.note_recovered("mutex_revoked")
        if self.tracer is not None:
            self.tracer.instant(owner, "fault:mutex_revoked", t, args={"mutex": mid})
        waiters = self._mutex_queue.get(mid)
        while waiters:
            wait_since, next_rank, wait_label = waiters.pop(0)
            if self._dead[next_rank]:
                continue
            grant = t + self.config.atomic_overhead
            self._mutex_owner[mid] = next_rank
            self._mutex_granted_at[mid] = grant
            self.stats[next_rank].wait += grant - wait_since
            clocks[next_rank] = grant
            results[next_rank] = None
            if self.tracer is not None:
                self.tracer.complete(
                    next_rank,
                    "mutex_wait",
                    wait_label or "mutex",
                    wait_since,
                    grant,
                    args={"mutex": mid, "held_by": owner, "revoked": True},
                )
            heapq.heappush(queue, (grant, self._n_events, next_rank))
            self._n_events += 1
            break

    # -- op handling -------------------------------------------------------
    def _handle(self, op: Op, rank: int, clocks, results, queue) -> float | None:
        cfg = self.config
        st = self.stats[rank]
        tr = self.tracer
        fi = self._fi_active
        now = clocks[rank]
        if op.kind == "compute":
            seconds = op.seconds
            stall = 0.0
            if fi is not None:
                stall = fi.op_delay(rank, "compute", seconds, now)
            st.compute += seconds
            st.wait += stall
            st.flops += float(op.value or 0.0)
            st.charge_phase(op.label, seconds + stall, float(op.value or 0.0))
            end = now + seconds + stall
            if tr is not None:
                tr.complete(
                    rank,
                    op.name or op.label or "compute",
                    op.label or "compute",
                    now,
                    end,
                    args={"flops": float(op.value)} if op.value else None,
                )
            return end

        if op.kind == "span_begin":
            if tr is not None:
                tr.begin(rank, op.name, now, op.label)
            return now

        if op.kind == "span_end":
            if tr is not None:
                tr.end(rank, now)
            return now

        if op.kind in ("get", "put", "putm"):
            nbytes = float(op.n_bytes)
            if not nbytes and op.name:
                probe = self.heap.segment(op.name, op.target)
                if probe is not None:
                    sub = probe[op.key] if op.key is not None else probe
                    nbytes = float(np.asarray(sub).nbytes)
            start = now + cfg.transfer_latency(rank, op.target)
            begin = start
            if op.target != rank:
                begin = max(start, self._port_free[op.target])
            dur = cfg.transfer_time(rank, op.target, nbytes)
            failed = False
            if fi is not None and op.target != rank:
                dur += fi.op_delay(rank, op.kind, dur, now)
                timeout = fi.op_timeout
                if fi.should_drop(rank, "get" if op.kind == "get" else "put"):
                    failed = True
                    if timeout is not None:
                        dur = min(dur, timeout)
                elif timeout is not None and dur > timeout:
                    failed = True
                    dur = timeout
                    fi.note_injected("op_timeout")
            end = begin + dur
            if op.target != rank:
                self._port_free[op.target] = end
            wait = begin - start
            st.wait += wait
            st.communication += end - now - wait
            st.charge_phase(op.label, end - now)
            if tr is not None:
                names = {"get": "SHMEM_GET", "put": "SHMEM_PUT", "putm": "SHMEM_PUTV"}
                args = {"target": op.target, "bytes": nbytes, "port_wait": wait}
                if failed:
                    args["dropped"] = True
                tr.complete(rank, names[op.kind], op.label or "shmem", now, end, args=args)
                if failed:
                    tr.instant(rank, f"fault:dropped_{op.kind}", end)
            if failed:
                results[rank] = DROPPED
                return end
            if op.kind == "get":
                st.bytes_received += nbytes
                if op.name:
                    data = self.heap.read(op.name, op.target, op.key)
                    if fi is not None and op.target != rank:
                        data = fi.maybe_corrupt(rank, data)
                    results[rank] = data
            elif op.kind == "put":
                st.bytes_sent += nbytes
                if op.name and op.value is not None:
                    self.heap.write(op.name, op.target, op.key, op.value)
            else:  # putm: all writes land atomically
                st.bytes_sent += nbytes
                for name, key, value in op.value:
                    if value is not None:
                        self.heap.write(name, op.target, key, value)
            return end

        if op.kind == "fadd":
            start = now + cfg.transfer_latency(rank, op.target)
            begin = max(start, self._port_free[op.target]) if op.target != rank else start
            end = begin + cfg.atomic_overhead
            if op.target != rank:
                self._port_free[op.target] = end
            st.wait += begin - start
            st.communication += end - now - (begin - start)
            st.charge_phase(op.label, end - now)
            if tr is not None:
                tr.complete(
                    rank,
                    "SHMEM_FADD",
                    op.label or "atomic",
                    now,
                    end,
                    args={"target": op.target, "port_wait": begin - start},
                )
            arr = self.heap.segment(op.name, op.target)
            if arr is None:
                raise RuntimeError("fadd requires a numeric heap segment")
            old = arr[op.key]
            arr[op.key] = old + op.value
            results[rank] = old
            return end

        if op.kind == "lock":
            mid = op.mutex
            if mid not in self._mutex_owner:
                self._mutex_owner[mid] = rank
                jitter = fi.mutex_delay(rank, now) if fi is not None else 0.0
                end = now + cfg.atomic_overhead + jitter
                self._mutex_granted_at[mid] = end
                st.communication += cfg.atomic_overhead
                st.wait += jitter
                st.charge_phase(op.label, cfg.atomic_overhead + jitter)
                if tr is not None:
                    tr.complete(rank, "mutex_lock", op.label or "mutex", now, end, args={"mutex": mid})
                return end
            self._mutex_queue.setdefault(mid, []).append((now, rank, op.label))
            return None  # parked until unlock

        if op.kind == "unlock":
            mid = op.mutex
            if self._mutex_owner.get(mid) != rank:
                raise RuntimeError(f"rank {rank} unlocking mutex {mid} it does not own")
            del self._mutex_owner[mid]
            self._mutex_granted_at.pop(mid, None)
            end = now + cfg.atomic_overhead
            st.communication += cfg.atomic_overhead
            if tr is not None:
                tr.complete(rank, "mutex_unlock", op.label or "mutex", now, end, args={"mutex": mid})
            waiters = self._mutex_queue.get(mid)
            if waiters:
                wait_since, next_rank, wait_label = waiters.pop(0)
                self._mutex_owner[mid] = next_rank
                jitter = fi.mutex_delay(next_rank, end) if fi is not None else 0.0
                grant = max(end, wait_since) + cfg.atomic_overhead + jitter
                self._mutex_granted_at[mid] = grant
                self.stats[next_rank].wait += grant - wait_since
                clocks[next_rank] = grant
                if tr is not None:
                    tr.complete(
                        next_rank,
                        "mutex_wait",
                        wait_label or "mutex",
                        wait_since,
                        grant,
                        args={"mutex": mid, "held_by": rank},
                    )
                heapq.heappush(queue, (grant, self._n_events, next_rank))
            return end

        if op.kind == "barrier":
            self._barrier_waiting.append((now, rank))
            n_done = sum(self._done)
            if len(self._barrier_waiting) == self.n_ranks - n_done:
                self._release_barrier(queue, clocks, results)
            return None

        if op.kind == "quiet":
            dt = self.config.latency_local
            st.communication += dt
            if tr is not None:
                tr.complete(rank, "SHMEM_QUIET", op.label or "shmem", now, now + dt)
            return now + dt

        if op.kind == "io":
            begin = max(now, self._io_free)
            end = begin + cfg.io_time(op.n_bytes, op.write)
            self._io_free = end
            st.wait += begin - now
            st.io += end - begin
            st.charge_phase(op.label, end - now)
            failed = fi is not None and fi.io_fails(rank)
            if tr is not None:
                args = {"bytes": float(op.n_bytes), "queue_wait": begin - now}
                if failed:
                    args["failed"] = True
                tr.complete(
                    rank,
                    "io_write" if op.write else "io_read",
                    op.label or "io",
                    now,
                    end,
                    args=args,
                )
                if failed:
                    tr.instant(rank, "fault:io_error", end)
            if failed:
                results[rank] = DROPPED
            return end

        if op.kind == "failures":
            dt = self.config.latency_local
            st.communication += dt
            dead = self.dead_ranks
            if tr is not None:
                tr.complete(
                    rank,
                    "heartbeat_check",
                    op.label or "heartbeat",
                    now,
                    now + dt,
                    args={"dead": sorted(dead)} if dead else None,
                )
            results[rank] = dead
            return now + dt

        raise ValueError(f"unknown op kind {op.kind!r}")

    def _release_barrier(self, queue, clocks, results) -> None:
        if not self._barrier_waiting:
            return
        t = max(w for w, _ in self._barrier_waiting) + self.config.latency_remote
        tr = self.tracer
        for w, r in self._barrier_waiting:
            self.stats[r].wait += t - w
            clocks[r] = t
            results[r] = None
            if tr is not None:
                tr.complete(r, "barrier", "sync", w, t)
            heapq.heappush(queue, (t, self._n_events, r))
            self._n_events += 1
        self._barrier_waiting = []

    # -- reporting ---------------------------------------------------------
    @property
    def n_events(self) -> int:
        return self._n_events

    def elapsed(self) -> float:
        """Virtual wall-clock: the latest rank finish time."""
        return max(s.finish_time for s in self.stats)

    def aggregate_flops(self) -> float:
        return sum(s.flops for s in self.stats)

    def load_imbalance(self) -> float:
        """Max finish time minus mean finish time across ranks."""
        finishes = [s.finish_time for s in self.stats]
        return max(finishes) - sum(finishes) / len(finishes)
