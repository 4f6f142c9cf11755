"""Multi-node sockets DDI backend: the symmetric heap behind a TCP port.

The paper's DDI layer ran one data server per node and moved CI-vector
windows with one-sided get/accumulate; this package is that shape on
commodity sockets.  A :class:`~repro.parallel.sockets.coordinator
.Coordinator` owns the distributed arrays and serves the five verbs
(get / acc / fetch_add / barrier / quiet) over length-prefixed TCP
messages to workers that are spawned on loopback today and can join from
other hosts tomorrow (``python -m repro.parallel.sockets.worker``).

:class:`~repro.parallel.sockets.transport.SocketSigmaEngine` is the one
:class:`~repro.parallel.engine.RankEngine` bound to this transport: the
same per-rank sigma program as the shm backend
(:mod:`repro.parallel.rankwork`), so sigma stays bitwise-identical to the
serial kernel for any worker count, with worker heartbeats feeding the
engine's dead-rank detection so a killed worker yields a diagnostic
``RuntimeError`` naming the rank, never a hang.
"""

from .comm import SocketComm
from .coordinator import LIVE_COORDINATORS, Coordinator, SocketCommSpec
from .transport import SocketSigmaEngine
from .wire import Channel, WireClosed, WireError, WireTimeout, connect_with_retry

__all__ = [
    "Channel",
    "Coordinator",
    "LIVE_COORDINATORS",
    "SocketComm",
    "SocketCommSpec",
    "SocketSigmaEngine",
    "WireClosed",
    "WireError",
    "WireTimeout",
    "connect_with_retry",
]
