"""Worker-side DDI verbs over one TCP data channel to the coordinator.

:class:`SocketComm` is the sockets twin of
:class:`repro.parallel.shm.ShmComm`'s worker side: the same five verbs,
but every ``get`` is a framed request/response (the window arrives as a
contiguous copy, not a live view), ``acc`` is genuinely one-sided (sent
and forgotten — the coordinator applies it under the accumulate lock),
and ``quiet`` is the fence that makes the one-sidedness safe: its reply
proves every prior message on this ordered TCP channel has been applied,
and carries any deferred ``acc`` failure back as a raised error.

Unlike shared memory, a remote window is *not* writable in place — which
is exactly why the sigma decomposition only ever ships disjoint *owned*
windows: accumulating a window that nobody else touches into a segment
the parent zeroed is a store, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .coordinator import SocketCommSpec
from .wire import Channel, WireError, connect_with_retry

__all__ = ["SocketComm", "dial"]


def dial(spec: SocketCommSpec, kind: str, rank: int | None) -> tuple[int, Channel]:
    """Open one authenticated ``"data"`` or ``"ctrl"`` channel to the
    coordinator; returns the rank it answered with (``rank=None`` takes
    the next free one — external workers) and the channel."""
    ch = connect_with_retry(spec.host, spec.port, timeout=spec.timeout)
    try:
        ch.send(("hello", kind, rank, spec.token))
        reply = ch.recv(timeout=spec.timeout)
        if reply[0] != "ok":
            raise WireError(f"coordinator refused {kind} channel: {reply[1:]}")
    except BaseException:
        ch.close()
        raise
    return reply[1], ch


class SocketComm:
    """The five one-sided verbs, spoken over a framed TCP channel."""

    # get() returns a copy: a rank computes locally and ships its owned
    # windows with acc + quiet
    live_windows = False

    def __init__(self, channel: Channel, rank: int, spec: SocketCommSpec):
        self.channel = channel
        self.rank = rank
        self.n_ranks = spec.n_ranks
        self.timeout = spec.timeout

    @classmethod
    def connect(cls, spec: SocketCommSpec, rank: int | None = None) -> "SocketComm":
        """Dial the coordinator's data channel (see :func:`dial`)."""
        rank, ch = dial(spec, "data", rank)
        return cls(ch, rank, spec)

    def _request(self, msg, timeout: float | None = None):
        self.channel.send(msg)
        reply = self.channel.recv(timeout=self.timeout if timeout is None else timeout)
        if reply[0] != "ok":
            raise WireError(f"{msg[0]} failed: {reply[1]}")
        return reply

    # -- the five verbs -------------------------------------------------------
    def get(self, name: str, window=None) -> np.ndarray:
        """One-sided read: a contiguous copy of the remote window."""
        return self._request(("get", name, window))[1]

    def acc(self, name: str, window, values) -> None:
        """One-sided accumulate: fire-and-forget; fenced by :meth:`quiet`."""
        self.channel.send(("acc", name, window, np.ascontiguousarray(values)))

    def fetch_add(self, n: int = 1) -> int:
        """Atomically advance the shared task counter; returns the old value."""
        return self._request(("fetch_add", n))[1]

    def barrier(self, timeout: float | None = None) -> None:
        """All ranks + parent rendezvous; raises on a broken barrier."""
        t = self.timeout if timeout is None else timeout
        # the reply may lag the request by up to the barrier timeout itself
        self._request(("barrier", t), timeout=t + 10.0)

    def quiet(self) -> None:
        """Complete outstanding one-sided traffic (SHMEM_QUIET): round-trip
        the ordered channel, surfacing any deferred ``acc`` error."""
        self._request(("quiet",))

    # -- management -----------------------------------------------------------
    @property
    def tx_bytes(self) -> int:
        return self.channel.tx_bytes

    @property
    def rx_bytes(self) -> int:
        return self.channel.rx_bytes

    def close(self) -> None:
        try:
            self.channel.send(("bye",))
        except WireError:
            pass
        self.channel.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
