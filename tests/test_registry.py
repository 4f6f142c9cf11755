"""Every name -> implementation registry refuses a taken name.

Registering a built-in's name again must raise and leave the built-in in
place: a silent replacement would swap the implementation for the whole
process, for every later caller.
"""

from __future__ import annotations

import pytest

from repro.core import kernels, solver, vectors
from repro.faults import BACKEND_SCENARIOS, SCENARIOS
from repro.parallel import backend


class Intruder:
    name = "intruder"
    kind = "intruder"


def _intruder(*_args):
    return {}


@pytest.mark.parametrize(
    "register, lookup, intruder",
    [
        pytest.param(
            lambda obj: kernels.register_kernel("dgemm")(obj),
            lambda: kernels._REGISTRY["dgemm"],
            Intruder,
            id="kernel",
        ),
        pytest.param(
            lambda obj: vectors.register_store("dense")(obj),
            lambda: vectors._REGISTRY["dense"],
            Intruder,
            id="store",
        ),
        pytest.param(
            lambda obj: backend.register_backend("shm")(obj),
            lambda: backend._REGISTRY["shm"],
            Intruder,
            id="backend",
        ),
        pytest.param(
            lambda obj: solver.register_method("auto")(obj),
            lambda: solver._METHODS["auto"],
            _intruder,
            id="method",
        ),
        pytest.param(
            lambda obj: SCENARIOS.register("dead_rank", obj),
            lambda: SCENARIOS["dead_rank"],
            _intruder,
            id="x1-scenario",
        ),
        pytest.param(
            lambda obj: BACKEND_SCENARIOS.register("shm_worker_kill", obj),
            lambda: BACKEND_SCENARIOS["shm_worker_kill"],
            _intruder,
            id="backend-scenario",
        ),
    ],
)
def test_taken_name_is_refused_and_the_original_kept(register, lookup, intruder):
    original = lookup()
    with pytest.raises(ValueError, match="already registered"):
        register(intruder)
    assert lookup() is original
    assert (Intruder.name, Intruder.kind) == ("intruder", "intruder")
