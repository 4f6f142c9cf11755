"""The sockets backend's coordinator: the symmetric heap behind a TCP port.

The coordinator process (the parent) owns the distributed arrays as plain
NumPy buffers and serves the five DDI verbs over length-prefixed TCP
messages (:mod:`repro.parallel.sockets.wire`).  Workers — spawned on
loopback today, remote tomorrow — open two connections each:

* a **data channel**, strictly request/response from the worker, carrying
  the verbs: ``get`` (window read), ``acc`` (one-way accumulate, no
  reply), ``fetch_add`` (atomic task counter), ``barrier`` (rendezvous of
  all ranks plus the parent), ``quiet`` (fence: the reply proves every
  prior message on this ordered channel — in particular all ``acc``\\ s —
  has been applied, and reports any deferred ``acc`` errors),
* a **control channel**, owned by the engine: ``ready``/``plan``/
  ``sigma``/``done``/``error`` plus worker heartbeats.

Each data channel gets a dedicated serve thread, so one slow verb never
blocks another rank; ``acc`` takes the accumulate lock (DDI_ACC's
atomicity guarantee), ``fetch_add`` its counter lock, and ``barrier``
waits on a :class:`threading.Barrier` with ``n_ranks + 1`` parties (the
parent participates through :meth:`Coordinator.barrier`).

The parent-side methods (`get`/`acc`/`fetch_add`/`barrier`/`quiet`/
``zero``/``reset_counter``) mirror :class:`repro.parallel.shm.ShmComm`
exactly, which is what lets one backend-conformance harness drive both
substrates.  Live coordinators register in :data:`LIVE_COORDINATORS`
until :meth:`close` — the test suite's leak fixture asserts the set
drains after every backend test.
"""

from __future__ import annotations

import os
import socket
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .wire import Channel, WireClosed, WireError

__all__ = ["Coordinator", "SocketCommSpec", "LIVE_COORDINATORS"]

# every open (un-closed) coordinator; drained by Coordinator.close() and
# asserted empty by the backend tests' leak-check fixture
LIVE_COORDINATORS: set = set()


@dataclass(frozen=True)
class SocketCommSpec:
    """Picklable dial-in handle a worker uses to join a coordinator."""

    host: str
    port: int
    token: str
    n_ranks: int
    timeout: float


class Coordinator:
    """Serve a named-array heap and the five DDI verbs to TCP workers."""

    def __init__(
        self,
        arrays: dict[str, tuple[int, ...]],
        n_ranks: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        timeout: float = 300.0,
    ):
        self.n_ranks = int(n_ranks)
        self.timeout = float(timeout)
        self.token = token if token else os.urandom(8).hex()
        self._arrays = {
            name: np.zeros(shape, dtype=np.float64) for name, shape in arrays.items()
        }
        self._acc_lock = threading.Lock()
        self._counter = 0
        self._counter_lock = threading.Lock()
        self._barrier = threading.Barrier(self.n_ranks + 1)
        self._reg = threading.Condition()
        self._data: dict[int, Channel] = {}
        self._ctrl: dict[int, Channel] = {}
        self._acc_errors: dict[int, list[str]] = {}
        self._next_rank = 0
        self._threads: list[threading.Thread] = []
        self._closed = threading.Event()
        self._listener = socket.create_server((host, int(port)))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-sockets-accept", daemon=True
        )
        self._accept_thread.start()
        LIVE_COORDINATORS.add(self)

    # -- connection plumbing ---------------------------------------------------
    def spec(self) -> SocketCommSpec:
        return SocketCommSpec(
            host=self.host,
            port=self.port,
            token=self.token,
            n_ranks=self.n_ranks,
            timeout=self.timeout,
        )

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            ch = Channel(sock)
            try:
                msg = ch.recv(timeout=10.0)
                kind, rank, token = msg[1], msg[2], msg[3]
                if msg[0] != "hello" or token != self.token:
                    ch.send(("err", "bad handshake or token"))
                    ch.close()
                    continue
                with self._reg:
                    if rank is None:
                        rank = self._next_rank
                        self._next_rank += 1
                    if not 0 <= rank < self.n_ranks:
                        ch.send(("err", f"rank {rank} outside 0..{self.n_ranks - 1}"))
                        ch.close()
                        continue
                    ch.send(("ok", rank))
                    if kind == "data":
                        self._data[rank] = ch
                        t = threading.Thread(
                            target=self._serve_data,
                            args=(rank, ch),
                            name=f"repro-sockets-data-{rank}",
                            daemon=True,
                        )
                        self._threads.append(t)
                        t.start()
                    else:
                        self._ctrl[rank] = ch
                    self._reg.notify_all()
            except WireError:
                ch.close()

    def wait_for_ctrl(self, deadline: float) -> dict[int, Channel]:
        """Block until every rank's control channel has joined."""
        import time

        with self._reg:
            while len(self._ctrl) < self.n_ranks:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    missing = sorted(set(range(self.n_ranks)) - set(self._ctrl))
                    raise RuntimeError(
                        f"socket workers {missing} never connected a control "
                        f"channel within {self.timeout:.0f}s"
                    )
                self._reg.wait(timeout=min(remaining, 0.2))
            return dict(self._ctrl)

    # -- the verb server -------------------------------------------------------
    def _serve_data(self, rank: int, ch: Channel) -> None:
        try:
            while not self._closed.is_set():
                msg = ch.recv(timeout=None)
                op = msg[0]
                if op == "acc":
                    # one-sided: no reply; failures surface at the next quiet
                    try:
                        self.acc(*msg[1:])
                    except Exception:
                        self._acc_errors.setdefault(rank, []).append(
                            traceback.format_exc()
                        )
                elif op == "get":
                    _, name, window = msg
                    try:
                        arr = self._arrays[name]
                        view = arr if window is None else arr[window]
                        ch.send(("ok", np.ascontiguousarray(view)))
                    except Exception as exc:
                        ch.send(("err", f"get({name!r}, {window!r}): {exc!r}"))
                elif op == "fetch_add":
                    ch.send(("ok", self.fetch_add(msg[1])))
                elif op == "barrier":
                    try:
                        self.barrier(msg[1])
                        ch.send(("ok",))
                    except threading.BrokenBarrierError:
                        ch.send(("err", "barrier broken or timed out"))
                elif op == "quiet":
                    pending = self._acc_errors.pop(rank, None)
                    if pending:
                        ch.send(("err", "deferred acc failure(s):\n" + "\n".join(pending)))
                    else:
                        ch.send(("ok",))
                elif op == "bye":
                    return
                else:
                    ch.send(("err", f"unknown verb {op!r}"))
        except WireClosed:
            return  # worker gone; the engine's heartbeat watch names it
        except WireError:
            return

    # -- parent-side verbs (mirror ShmComm) ------------------------------------
    def get(self, name: str, window=None) -> np.ndarray:
        """Parent-local window into a heap array (live view, writable)."""
        view = self._arrays[name]
        return view if window is None else view[window]

    def acc(self, name: str, window, values) -> None:
        with self._acc_lock:
            # window=None indexes a (1, ...) view of the whole array
            self._arrays[name][window] += values

    def fetch_add(self, n: int = 1) -> int:
        with self._counter_lock:
            old = self._counter
            self._counter = old + n
        return old

    def barrier(self, timeout: float | None = None) -> None:
        self._barrier.wait(timeout if timeout else self.timeout)

    def quiet(self) -> None:
        """Parent-side fence: local stores are already ordered; worker
        accumulates are fenced by each worker's own quiet before it reports
        ``done``, which the engine awaits before reading."""

    def reset_counter(self) -> None:
        with self._counter_lock:
            self._counter = 0

    def zero(self, *names: str) -> None:
        for name in names:
            self._arrays[name][...] = 0.0

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Stop serving: abort the barrier, close every channel + listener."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._barrier.abort()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._reg:
            channels = list(self._data.values()) + list(self._ctrl.values())
            self._data.clear()
            self._ctrl.clear()
        for ch in channels:
            ch.close()
        self._accept_thread.join(timeout=2.0)
        for t in self._threads:
            t.join(timeout=2.0)
        LIVE_COORDINATORS.discard(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
