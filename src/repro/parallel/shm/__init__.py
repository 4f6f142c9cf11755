"""Real shared-memory execution backend for the parallel sigma.

The paper's decomposition on actual OS processes: POSIX shared-memory
segments for the distributed arrays (:mod:`~repro.parallel.shm.comm`) and
the transport (:mod:`~repro.parallel.shm.transport`) that binds them, with
one control pipe per rank, to the substrate-independent
:class:`~repro.parallel.engine.RankEngine`.  Selected via
``ParallelSigma(..., backend="shm")``.
"""

from .comm import ShmComm, ShmCommSpec
from .transport import ShmSigmaEngine

__all__ = ["ShmComm", "ShmCommSpec", "ShmSigmaEngine"]
