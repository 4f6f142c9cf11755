"""Shared-memory transport: what the rank engine needs from POSIX shm.

The heap is a :class:`~repro.parallel.shm.comm.ShmComm` (named segments
every rank maps, so worker outputs are the parent's arrays written in
place), a rank's control endpoint is one end of a
:func:`multiprocessing.Pipe` handed over in the spawn args, and there are
no heartbeats: every worker is a child process, so the engine's wait on
the process sentinels sees a death directly.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass

from ..engine import RankEngine
from .comm import ShmComm, ShmCommSpec

__all__ = ["ShmLink", "ShmSigmaEngine", "ShmTransport"]


@dataclass
class ShmLink:
    """Worker-side handle: the child's pipe end and the segments to attach."""

    conn: object  # multiprocessing.connection.Connection
    spec: ShmCommSpec
    lost = (EOFError, OSError)

    def open_ctrl(self, rank: int):
        return rank, self.conn

    def open_comm(self, rank: int) -> ShmComm:
        return ShmComm.attach(self.spec)


class ShmTransport:
    """Parent side: segments, one control pipe per spawned rank."""

    name = "shm"
    lost = ShmLink.lost
    spawns = True
    heartbeat_interval = silence_budget = None

    def __init__(self):
        self._ctx = mp.get_context("spawn")
        self.heap: ShmComm | None = None
        self._ends: dict = {}
        self._child_ends: list = []

    def open_heap(self, arrays: dict, n_ranks: int, timeout: float) -> None:
        self.heap = ShmComm(self._ctx, arrays=arrays, n_ranks=n_ranks)

    def link(self, rank: int) -> ShmLink:
        self._ends[rank], child = self._ctx.Pipe()
        self._child_ends.append(child)
        return ShmLink(child, self.heap.spec())

    def _drop_child_ends(self) -> None:
        for end in self._child_ends:
            end.close()
        self._child_ends = []

    def connect(self, deadline: float) -> dict:
        # every worker holds its own copy by now; without the parent's, a
        # dead worker reads as EOF on its pipe
        self._drop_child_ends()
        return dict(self._ends)

    @staticmethod
    def recv(endpoint, timeout: float):
        if not endpoint.poll(timeout):
            raise TimeoutError(f"no message within {timeout:.0f}s")
        return endpoint.recv()

    def close(self) -> None:
        self._drop_child_ends()
        for end in self._ends.values():
            end.close()
        self._ends = {}
        if self.heap is not None:
            self.heap.close()


class ShmSigmaEngine(RankEngine):
    """The rank engine over POSIX shared memory."""

    transport = ShmTransport
