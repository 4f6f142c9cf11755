"""Cached, journaled, resumable FCI jobs: the library a campaign runs on.

The pieces:

* :mod:`.jobs` - content-addressed :class:`JobSpec` (idempotent job keys,
  shared CI-space digests) and the :class:`JobRecord` lifecycle machine.
* :mod:`.cache` - :class:`ArtifactCache`: compiled workspaces (integrals,
  SCF, cached :class:`~repro.core.plans.SigmaPlan`) keyed by space digest,
  converged results keyed by job digest, persisted atomically.
* :mod:`.executor` - one preemptible, checkpointed, telemetry-streaming
  solve per job (:class:`SolveExecutor`, :class:`ServiceCheckpointer`).
* :mod:`.service` - :class:`FCIService`, which runs jobs on a thread pool
  and journals them so a restart re-adopts them.

Quick start::

    from repro import Molecule
    from repro.service import FCIService

    with FCIService("fci-workdir") as svc:
        job = svc.submit(Molecule.from_atoms([("H", (0, 0, 0)), ("H", (0, 0, 1.4))]))
        print(svc.result(job.key, timeout=60)["energy"])
"""

from .cache import ArtifactCache, Workspace
from .executor import JobPreempted, JobTimeout, ServiceCheckpointer, SolveExecutor
from .jobs import JobRecord, JobSpec, JobState, JobStateError
from .service import FCIService

__all__ = [
    "ArtifactCache",
    "FCIService",
    "JobPreempted",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobStateError",
    "JobTimeout",
    "ServiceCheckpointer",
    "SolveExecutor",
    "Workspace",
]
