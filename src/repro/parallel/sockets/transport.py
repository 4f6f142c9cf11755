"""Sockets transport: what the rank engine needs from the TCP coordinator.

The heap is a :class:`~repro.parallel.sockets.coordinator.Coordinator`
(workers hold no view of it: they compute into local buffers and ship
their owned windows with ``acc`` + ``quiet``), a rank's control endpoint
is the ctrl :class:`~repro.parallel.sockets.wire.Channel` it dials in
with, and every worker heartbeats on it — which is how the engine tells
a long DGEMM from a dead process it cannot wait on: with
``spawn="external"`` the workers are started by hand, on this host or
another, with ``python -m repro.parallel.sockets.worker``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import RankEngine
from .comm import SocketComm, dial
from .coordinator import Coordinator, SocketCommSpec
from .wire import WireError

__all__ = ["SocketLink", "SocketSigmaEngine", "SocketsTransport"]


@dataclass(frozen=True)
class SocketLink:
    """Worker-side handle: where to dial the coordinator."""

    spec: SocketCommSpec
    lost = (WireError,)

    def open_ctrl(self, rank: int | None):
        return dial(self.spec, "ctrl", rank)

    def open_comm(self, rank: int) -> SocketComm:
        return SocketComm.connect(self.spec, rank)


class SocketsTransport:
    """Parent side: the coordinator and the ctrl channels it accepted."""

    name = "sockets"
    lost = SocketLink.lost

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        spawn: str = "process",
        heartbeat_interval: float = 0.25,
        heartbeat_misses: int = 40,
    ):
        if spawn not in ("process", "external"):
            raise ValueError(
                f"spawn must be 'process' (loopback pool) or 'external' "
                f"(workers join by hand); got {spawn!r}"
            )
        self.spawns = spawn == "process"
        self.heartbeat_interval = float(heartbeat_interval)
        self.silence_budget = self.heartbeat_interval * int(heartbeat_misses)
        self._address = {"host": host, "port": port, "token": token}
        self.heap: Coordinator | None = None

    def open_heap(self, arrays: dict, n_ranks: int, timeout: float) -> None:
        self.heap = Coordinator(
            arrays,
            n_ranks,
            timeout=timeout,
            **self._address,
        )

    def link(self, rank: int) -> SocketLink:
        return SocketLink(self.heap.spec())

    def connect(self, deadline: float) -> dict:
        return self.heap.wait_for_ctrl(deadline)

    @staticmethod
    def recv(endpoint, timeout: float):
        return endpoint.recv(timeout=timeout)

    def close(self) -> None:
        if self.heap is not None:
            self.heap.close()  # closes every accepted channel too


class SocketSigmaEngine(RankEngine):
    """The rank engine behind a TCP coordinator (loopback or multi-node)."""

    transport = SocketsTransport
