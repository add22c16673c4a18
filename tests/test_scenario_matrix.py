"""The ten canned fault scenarios, pinned at seed 7.

Each scenario flies the square mission as one chaos trial; the pins are
its survival, the ``crash.*`` invariant that ended it, the final failsafe
rung and flight mode, and the mission completion.  A change to any of them
is a behaviour change of the closed-loop stack, not of this test.
"""

import pytest

from repro.faults import run_scenario, standard_scenarios

SEED = 7

#: name -> (survived, crash invariant, final failsafe, final mode, completion)
PINNED = {
    "low-battery": (True, None, "FAILSAFE_RTL", "rtl", 0.75),
    "critical-battery": (True, None, "FAILSAFE_LAND", "land", 0.5),
    "gps-loss": (True, None, "FAILSAFE_LAND", "land", 0.75),
    "link-blackout": (True, None, "FAILSAFE_RTL", "rtl", 0.75),
    "motor-degradation": (True, None, "NOMINAL", "rtl", 1.0),
    "motor-out": (False, "crash.hard-landing", "DEGRADED", "auto", 0.25),
    "esc-thermal": (True, None, "NOMINAL", "rtl", 1.0),
    "imu-glitch": (True, None, "NOMINAL", "auto", 0.75),
    "offload-stall": (True, None, "NOMINAL", "rtl", 1.0),
    "combined-stress": (True, None, "NOMINAL", "rtl", 1.0),
}


@pytest.fixture(scope="module")
def matrix():
    """Every standard scenario flown once at ``SEED``, keyed by name."""
    return {
        scenario.name: (scenario, run_scenario(scenario, seed=SEED))
        for scenario in standard_scenarios()
    }


def test_matrix_names_every_scenario(matrix):
    assert set(matrix) == set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_scenario_outcome_is_pinned(matrix, name):
    _, result = matrix[name]
    assert (
        result.survived,
        result.crash_reason,
        result.final_failsafe,
        result.final_mode,
        result.mission_completion,
    ) == PINNED[name]


# The crash path and the EKF-in-the-loop path; the rest share their code.
@pytest.mark.parametrize("name", ["motor-out", "gps-loss"])
def test_second_run_reproduces_metrics(matrix, name):
    scenario, first = matrix[name]
    assert run_scenario(scenario, seed=SEED).metrics() == first.metrics()
