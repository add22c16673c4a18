"""Ensemble chaos campaign driver: a group of trials per vectorized simulator.

A group flies the same :class:`~repro.chaos.runner.LaneHarness` per trial
and the same :func:`~repro.chaos.runner.fly` schedule as
:func:`~repro.chaos.runner.run_trial`; each harness wraps one lane of an
:class:`~repro.sim.ensemble.EnsembleFlightSimulator` instead of a scalar
simulator.  Only the physics burst between a tick's pre and post phases
differs: it runs once for the whole group through the ensemble's masked
NumPy kernels.

This is the one campaign engine: :func:`repro.chaos.runner.run_campaign`
and :func:`~repro.chaos.runner.run_campaign_supervised` fly every group
through it.  Every lane draws its own trial's sensor noise, exactly as the
scalar simulator does (see ``repro.sim.ensemble``'s equivalence contract), so
``run_trials_ensemble`` returns :class:`~repro.chaos.runner.TrialResult`
objects whose :meth:`~repro.chaos.runner.TrialResult.metrics` fingerprints —
and black-box traces — are identical to the scalar reference
:func:`~repro.chaos.runner.run_trial`'s, which is exactly what
:func:`repro.chaos.runner.verify_replay` checks.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.chaos.campaign import CampaignConfig, TrialSpec
from repro.chaos.runner import DEFAULT_MODEL, LaneHarness, TrialResult, fly
from repro.sim.ensemble import EnsembleFlightSimulator
from repro.sim.simulator import DroneModel

__all__ = ["LaneHarness", "run_trials_ensemble"]


def run_trials_ensemble(
    specs: Sequence[TrialSpec], config: CampaignConfig
) -> List[TrialResult]:
    """Fly ``specs`` as one lockstep group; results in input order.

    EKF and truth-state trials share the group, each lane on its own
    ``use_ekf``; a campaign is chunked into groups by
    :func:`repro.chaos.runner.run_campaign`.  Every result is
    fingerprint-identical to :func:`repro.chaos.runner.run_trial` on the
    same ``(spec, config)``.
    """
    if not specs:
        return []
    ensemble = EnsembleFlightSimulator(
        DroneModel(**DEFAULT_MODEL),
        len(specs),
        physics_rate_hz=config.physics_rate_hz,
        use_ekf=[spec.use_ekf for spec in specs],
        sensor_seeds=[spec.sensor_seed for spec in specs],
    )
    harnesses = [
        LaneHarness(spec, config, ensemble.lane(index))
        for index, spec in enumerate(specs)
    ]

    def burst(duration_s: float) -> None:
        """Freeze newly crashed lanes, then step the live lanes together."""
        for index, harness in enumerate(harnesses):
            if not harness.alive and ensemble.live[index]:
                ensemble.freeze_lane(index)
        if ensemble.live.any():
            ensemble.run_for(duration_s)

    return fly(harnesses, burst, config)
