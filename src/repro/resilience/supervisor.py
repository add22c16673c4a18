"""Offload fallback chain: off-board SLAM -> onboard SLAM -> dead reckoning.

PR 1's :class:`~repro.autopilot.offload.PoseStalenessWatchdog` flags a
binary fallback.  This supervisor completes the chain the paper's offload
analysis implies: navigation runs on the freshest source that is actually
healthy, stepping *down* when the off-board stream degrades (pose staleness
or ACK silence) and back *up* with hysteresis once the link holds fresh for
a settling period — the same escalate-fast/recover-deliberately convention
as the autopilot failsafe ladder.

Tiers:

* ``OFFBOARD`` — off-board SLAM over the MAVLink link (full rate);
* ``ONBOARD_REDUCED`` — onboard SLAM at a reduced keyframe/BA rate, used
  only while the onboard platform can actually hold frame rate;
* ``DEAD_RECKONING`` — IMU integration only; staleness (and drift) grow
  until a healthier tier returns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.autopilot.offload import PoseUpdate
from repro.platforms.deadlines import DeadlineReport, slam_frame_deadlines
from repro.platforms.profiles import PlatformProfile
from repro.slam.dataset import FRAME_RATE_HZ
from repro.slam.pipeline import SlamRunResult

#: Keyframe interval the onboard tier runs at (vs the pipeline's 10):
#: halving keyframe/BA rate is what makes onboard SLAM feasible on an RPi.
ONBOARD_REDUCED_KEYFRAME_INTERVAL = 20


class NavTier(enum.IntEnum):
    """Navigation pose sources, best first (larger value = more degraded)."""

    OFFBOARD = 0
    ONBOARD_REDUCED = 1
    DEAD_RECKONING = 2


@dataclass(frozen=True)
class TierTransition:
    """One supervisor step between navigation tiers."""

    time_s: float
    from_tier: NavTier
    to_tier: NavTier
    cause: str

    @property
    def step_down(self) -> bool:
        return self.to_tier > self.from_tier


@dataclass
class OffloadSupervisor:
    """Monitors the off-board pose stream and walks the fallback chain.

    The consumer calls :meth:`note_pose` on every delivered off-board pose
    and :meth:`update` every control cycle.  Degradation steps down
    immediately; recovery steps up only after the stream has stayed fresh
    for ``step_up_hold_s`` (hysteresis, so a flapping link cannot make
    navigation flap with it).
    """

    staleness_limit_s: float = 0.5
    ack_timeout_s: float = 1.5
    step_up_hold_s: float = 2.0
    #: Whether onboard SLAM holds frame rate; while False the chain steps
    #: down past ONBOARD_REDUCED to DEAD_RECKONING.
    onboard_healthy: bool = True
    tier: NavTier = NavTier.OFFBOARD
    last_capture_s: float = 0.0
    last_delivery_s: float = 0.0
    transitions: List[TierTransition] = field(default_factory=list)
    _fresh_since_s: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.staleness_limit_s <= 0:
            raise ValueError("staleness limit must be positive")
        if self.ack_timeout_s <= 0:
            raise ValueError("ACK timeout must be positive")
        if self.step_up_hold_s < 0:
            raise ValueError("step-up hold cannot be negative")

    def note_pose(self, capture_s: float, delivery_s: float) -> None:
        """Record one delivered off-board pose (doubles as link ACK)."""
        self.last_capture_s = max(self.last_capture_s, capture_s)
        self.last_delivery_s = max(self.last_delivery_s, delivery_s)

    def stale(self, now_s: float) -> bool:
        return now_s - self.last_capture_s > self.staleness_limit_s

    def silent(self, now_s: float) -> bool:
        return now_s - self.last_delivery_s > self.ack_timeout_s

    def update(self, now_s: float) -> Optional[TierTransition]:
        """Poll; returns the transition taken this cycle, if any."""
        stale = self.stale(now_s)
        silent = self.silent(now_s)
        offboard_ok = not stale and not silent
        if offboard_ok:
            if self._fresh_since_s is None:
                self._fresh_since_s = now_s
        else:
            self._fresh_since_s = None
        held = (
            self._fresh_since_s is not None
            and now_s - self._fresh_since_s >= self.step_up_hold_s
        )

        if self.tier is NavTier.OFFBOARD:
            if not offboard_ok:
                cause = "pose stale" if stale else "ack timeout"
                target = (
                    NavTier.ONBOARD_REDUCED
                    if self.onboard_healthy
                    else NavTier.DEAD_RECKONING
                )
                return self._transition(now_s, target, cause)
        elif self.tier is NavTier.ONBOARD_REDUCED:
            if not self.onboard_healthy:
                return self._transition(
                    now_s, NavTier.DEAD_RECKONING, "onboard overloaded"
                )
            if held:
                return self._transition(now_s, NavTier.OFFBOARD, "link recovered")
        else:  # DEAD_RECKONING
            if held:
                return self._transition(now_s, NavTier.OFFBOARD, "link recovered")
            if self.onboard_healthy:
                return self._transition(
                    now_s, NavTier.ONBOARD_REDUCED, "onboard recovered"
                )
        return None

    def _transition(
        self, now_s: float, to_tier: NavTier, cause: str
    ) -> TierTransition:
        transition = TierTransition(
            time_s=now_s, from_tier=self.tier, to_tier=to_tier, cause=cause
        )
        self.tier = to_tier
        self.transitions.append(transition)
        return transition


def onboard_reduced_deadlines(
    result: SlamRunResult,
    platform: PlatformProfile,
    frame_rate_hz: float = FRAME_RATE_HZ,
    keyframe_interval: int = ONBOARD_REDUCED_KEYFRAME_INTERVAL,
) -> DeadlineReport:
    """Deadline check of the ONBOARD_REDUCED tier on ``platform``.

    The onboard tier amortizes local BA over twice the keyframe interval.
    ``resilience.study`` prices the tier's deadline-miss rate with this
    report; nothing sets :attr:`OffloadSupervisor.onboard_healthy` from it.
    """
    return slam_frame_deadlines(
        result,
        platform,
        frame_rate_hz=frame_rate_hz,
        keyframe_interval=keyframe_interval,
    )


@dataclass(frozen=True)
class FallbackReport:
    """What the fallback chain did over one replayed offload stream."""

    duration_s: float
    supervised: bool
    transitions: Tuple[TierTransition, ...]
    #: (tier name, seconds spent) pairs, every tier present.
    tier_time_s: Tuple[Tuple[str, float], ...]
    worst_consumer_staleness_s: float
    worst_offboard_staleness_s: float
    staleness_bound_s: float

    @property
    def step_downs(self) -> int:
        return sum(1 for t in self.transitions if t.step_down)

    @property
    def step_ups(self) -> int:
        return sum(1 for t in self.transitions if not t.step_down)

    @property
    def occupancy(self) -> Dict[str, float]:
        return dict(self.tier_time_s)

    @property
    def bounded(self) -> bool:
        """Did the consumer's pose staleness stay within the bound?"""
        return self.worst_consumer_staleness_s <= self.staleness_bound_s


def simulate_fallback_chain(
    updates: Sequence[PoseUpdate],
    duration_s: float,
    supervisor: Optional[OffloadSupervisor] = None,
    onboard_staleness_s: float = 0.1,
    staleness_bound_s: float = 1.0,
    dt_s: float = 0.05,
) -> FallbackReport:
    """Replay an off-board pose stream through the fallback chain.

    ``supervisor=None`` is the unsupervised baseline: navigation pins the
    off-board stream, and every outage shows up as unbounded consumer
    staleness.  With a supervisor, the consumer's staleness is the active
    tier's: the off-board pose age, the onboard processing latency, or the
    time since the last valid pose while dead reckoning.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    if onboard_staleness_s < 0:
        raise ValueError("onboard staleness cannot be negative")
    deliveries = sorted(updates, key=lambda u: u.delivery_time_s)
    tier_time = {tier: 0.0 for tier in NavTier}
    transitions: List[TierTransition] = []
    worst_consumer_s = 0.0
    worst_offboard_s = 0.0
    last_capture_s = 0.0
    last_valid_s = 0.0
    cursor = 0
    steps = max(1, int(round(duration_s / dt_s)))
    for step in range(1, steps + 1):
        now_s = step * dt_s
        while (
            cursor < len(deliveries)
            and deliveries[cursor].delivery_time_s <= now_s
        ):
            update = deliveries[cursor]
            cursor += 1
            last_capture_s = max(last_capture_s, update.capture_time_s)
            if supervisor is not None:
                supervisor.note_pose(update.capture_time_s, update.delivery_time_s)
        offboard_staleness_s = now_s - last_capture_s
        worst_offboard_s = max(worst_offboard_s, offboard_staleness_s)
        if supervisor is not None:
            transition = supervisor.update(now_s)
            if transition is not None:
                transitions.append(transition)
            tier = supervisor.tier
        else:
            tier = NavTier.OFFBOARD
        tier_time[tier] += dt_s
        if tier is NavTier.OFFBOARD:
            consumer_staleness_s = offboard_staleness_s
            last_valid_s = max(last_valid_s, last_capture_s)
        elif tier is NavTier.ONBOARD_REDUCED:
            consumer_staleness_s = onboard_staleness_s
            last_valid_s = now_s - onboard_staleness_s
        else:
            consumer_staleness_s = now_s - last_valid_s
        worst_consumer_s = max(worst_consumer_s, consumer_staleness_s)
    return FallbackReport(
        duration_s=duration_s,
        supervised=supervisor is not None,
        transitions=tuple(transitions),
        tier_time_s=tuple(
            (tier.name, tier_time[tier]) for tier in NavTier
        ),
        worst_consumer_staleness_s=worst_consumer_s,
        worst_offboard_staleness_s=worst_offboard_s,
        staleness_bound_s=staleness_bound_s,
    )
