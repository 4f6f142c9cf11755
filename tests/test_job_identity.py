"""Job identity and journal compatibility pins for ``repro.service``.

Every cached result and every journal on disk is addressed by
:attr:`JobSpec.job_key`, so these digests are a storage format: a change
that moves them orphans every workdir written before it.  The literal hex
below was computed once and must never be re-baselined.  The journal
fixture is one written by the earlier priority-scheduler version of the
service (it still carries ``priority``, ``tier`` and ``worker``); a
restart on a workdir holding it must adopt the job and serve its result
from the cache without solving.
"""

from __future__ import annotations

import json

import numpy as np

from repro.service import FCIService, JobSpec, JobState
from repro.service.cache import ArtifactCache

H2_JOB_KEY = "74b48569179af8dc9f42ee691d365c0fb495c4b441b73f938142ba91b9dd536d"
H2_SPACE_KEY = "54db8e206a05db2b7d3b5342a6d09f4805084dce76de5372cb26fc3aebd8b88d"
H2_OPTIONS_JOB_KEY = "879d0bf56193d103d98d3a18cc6360aded214e527ac2be83583d6e97b6d97a97"

OLD_JOURNAL = (
    '{"key": "74b48569179af8dc9f42ee691d365c0fb495c4b441b73f938142ba91b9dd536d", '
    '"label": "H2", "state": "completed", "priority": "batch", "tier": 2, '
    '"submitted_at": 1792305194.0360441, "started_at": 1792305194.036334, '
    '"finished_at": 1792305194.052396, "timeout": null, "worker": null, '
    '"attempts": 1, "deduped": 0, "cache_hit": false, "error": null, '
    '"result": {"energy": -1.137275943784672, "scf_energy": -1.1167143251784495, '
    '"correlation_energy": -0.02056161860622252, "converged": true, '
    '"n_iterations": 2, "n_sigma": 2, "s_squared": 0.0, "dimension": 4, '
    '"method": "auto", "workspace_hit": false, "store_kind": "dense"}, '
    '"n_events": 2, "spec": {"atoms": [["H", [0.0, 0.0, 0.0]], ["H", [0.0, 0.0, 1.4]]], '
    '"charge": 0, "multiplicity": 1, "basis": "sto-3g", "frozen_core": 0, '
    '"n_active": null, "point_group": null, "wavefunction_irrep": null, '
    '"algorithm": "dgemm", "method": "auto", "vector_store": null, '
    '"block_columns": null, "model_space_size": 50, "spin_penalty": 0.0, '
    '"olsen_step": 0.7, "energy_tol": 1e-10, "residual_tol": 1e-05, '
    '"max_iterations": 60, "parallel": null, "kernel": null, "label": "H2"}}'
)
OLD_ENERGY = -1.137275943784672
OLD_VECTOR = np.array([[-0.993627297, 0.0], [0.0, 0.11271555]])


def test_h2_job_and_space_keys_are_pinned(h2):
    spec = JobSpec.from_molecule(h2, "sto-3g")
    assert spec.job_key == H2_JOB_KEY
    assert spec.space_key == H2_SPACE_KEY


def test_option_dicts_keep_their_pinned_keys(h2):
    spec = JobSpec.from_molecule(
        h2,
        "sto-3g",
        method="davidson",
        parallel={"backend": "shm", "n_workers": 2},
        vector_store={"kind": "mmap", "directory": "/tmp"},
    )
    assert spec.job_key == H2_OPTIONS_JOB_KEY
    assert spec.space_key == H2_SPACE_KEY  # solver options leave the space alone
    assert JobSpec.from_dict(json.loads(json.dumps(spec.to_dict()))).job_key == (
        H2_OPTIONS_JOB_KEY
    )


def test_old_format_journal_is_adopted_and_served_from_cache(tmp_path, h2):
    (tmp_path / "jobs").mkdir()
    (tmp_path / "jobs" / f"{H2_JOB_KEY}.json").write_text(OLD_JOURNAL)
    meta = json.loads(OLD_JOURNAL)["result"]
    ArtifactCache(tmp_path).put_result(H2_JOB_KEY, meta, OLD_VECTOR)

    with FCIService(tmp_path, max_workers=1) as svc:
        assert svc.recovery["skipped_journals"] == 0
        rec = svc.get(H2_JOB_KEY)
        assert rec.state == JobState.COMPLETED
        assert rec.result["energy"] == OLD_ENERGY
        again = svc.submit(molecule=h2, basis="sto-3g")
        assert again is rec and again.cache_hit
        assert svc.result(H2_JOB_KEY, timeout=5)["energy"] == OLD_ENERGY
        assert np.array_equal(svc.vector(H2_JOB_KEY), OLD_VECTOR)
        assert svc.stats()["solves_executed"] == 0
