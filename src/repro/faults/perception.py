"""Perception fault injection: feature droughts, corrupted frames, throttles.

PR 1's injectors attack the inner loop (sensors, power, propulsion, link).
This module attacks the *perception front end* the outer loop depends on:

* **feature drought** — texture loss (motion blur, over-exposure, a blank
  wall): most observations vanish for the window's duration;
* **frame corruption** — sensor/ISP faults: descriptor bits flip and
  keypoints jitter, so matching sees plausible-looking garbage;
* **compute throttle** — the platform's clock steps down (thermal, DVFS):
  frames are intact but per-frame throughput shrinks.

The injector wraps a :class:`~repro.slam.dataset.SyntheticSequence` and
duck-types the surface :class:`~repro.slam.pipeline.SlamPipeline` consumes,
so a faulted sequence drops into the pipeline unchanged.  Corruption is
deterministic: each frame's noise comes from a generator seeded by
``(seed, frame index)``, and the wrapped sequence hands out the same clean
frame ``i`` whatever order frames are read in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.faults.schedule import FaultKind, FaultSchedule
from repro.slam.dataset import (
    CameraModel,
    Frame,
    SequenceSpec,
    SyntheticSequence,
)


class PerceptionFaultInjector:
    """A sequence wrapper that corrupts frames per the fault schedule."""

    def __init__(
        self,
        sequence: SyntheticSequence,
        schedule: FaultSchedule,
        seed: int = 101,
    ):
        self.sequence = sequence
        self.schedule = schedule
        self.seed = seed
        self.droughts_applied = 0
        self.corruptions_applied = 0

    # -- duck-typed SyntheticSequence surface ----------------------------------

    @property
    def spec(self) -> SequenceSpec:
        return self.sequence.spec

    @property
    def camera(self) -> CameraModel:
        return self.sequence.camera

    @property
    def frame_count(self) -> int:
        return self.sequence.frame_count

    @property
    def landmarks_m(self) -> np.ndarray:
        return self.sequence.landmarks_m

    def descriptor_for(self, landmark_id: int) -> np.ndarray:
        return self.sequence.descriptor_for(landmark_id)

    def generate_frame(self, index: int) -> Frame:
        """Render the clean frame, then land every active perception fault."""
        frame = self.sequence.generate_frame(index)
        for event in self.schedule.active(frame.timestamp_s):
            if event.kind is FaultKind.FEATURE_DROUGHT:
                frame = self._drought(frame, event.param_dict)
                self.droughts_applied += 1
            elif event.kind is FaultKind.FRAME_CORRUPTION:
                frame = self._corrupt(frame, event.param_dict)
                self.corruptions_applied += 1
        return frame

    # -- throttle queries (consumed by the deadline model, not the frames) -----

    def throttle_scale(self, time_s: float) -> float:
        """Fraction of nominal compute throughput available at ``time_s``."""
        scale = 1.0
        for event in self.schedule.active(time_s):
            if event.kind is FaultKind.COMPUTE_THROTTLE:
                scale = min(scale, event.param_dict.get("scale", 0.5))
        return scale

    def frame_scales(self, frames: int, frame_rate_hz: float = 20.0) -> List[float]:
        """Per-frame throughput scales for ``scaled_frame_deadlines``."""
        if frames <= 0:
            raise ValueError("frames must be positive")
        if frame_rate_hz <= 0:
            raise ValueError("frame rate must be positive")
        return [self.throttle_scale(i / frame_rate_hz) for i in range(frames)]

    # -- per-kind frame mutations ----------------------------------------------

    def _frame_rng(self, index: int) -> np.random.Generator:
        # Seeded by (injector seed, frame index): bit-identical regardless of
        # how many times or in what order frames are generated.
        return np.random.default_rng([self.seed, index])

    def _drought(self, frame: Frame, params: Dict[str, float]) -> Frame:
        keep_fraction = params.get("keep_fraction", 0.1)
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must be in [0, 1]: {keep_fraction}")
        rng = self._frame_rng(frame.index)
        kept = rng.random(frame.observation_count) < keep_fraction
        return Frame(
            index=frame.index,
            timestamp_s=frame.timestamp_s,
            true_position_m=frame.true_position_m,
            true_yaw_rad=frame.true_yaw_rad,
            landmark_ids=frame.landmark_ids[kept],
            keypoints_px=frame.keypoints_px[kept],
            descriptors=frame.descriptors[kept],
        )

    def _corrupt(self, frame: Frame, params: Dict[str, float]) -> Frame:
        bit_flip_fraction = params.get("bit_flip_fraction", 0.25)
        pixel_sigma_px = params.get("pixel_sigma_px", 3.0)
        if not 0.0 <= bit_flip_fraction <= 1.0:
            raise ValueError(
                f"bit_flip_fraction must be in [0, 1]: {bit_flip_fraction}"
            )
        rng = self._frame_rng(frame.index)
        descriptors = frame.descriptors.copy()
        if descriptors.size and bit_flip_fraction > 0.0:
            flips = rng.random((descriptors.shape[0], descriptors.shape[1], 8))
            mask = np.packbits(
                (flips < bit_flip_fraction).astype(np.uint8), axis=-1
            ).reshape(descriptors.shape)
            descriptors ^= mask
        keypoints = frame.keypoints_px.copy()
        if keypoints.size and pixel_sigma_px > 0.0:
            keypoints += rng.normal(0.0, pixel_sigma_px, keypoints.shape)
        return Frame(
            index=frame.index,
            timestamp_s=frame.timestamp_s,
            true_position_m=frame.true_position_m,
            true_yaw_rad=frame.true_yaw_rad,
            landmark_ids=frame.landmark_ids,
            keypoints_px=keypoints,
            descriptors=descriptors,
        )


@dataclass(frozen=True)
class PerceptionScenario:
    """One SLAM sequence x perception-fault-schedule combination."""

    name: str
    sequence: str
    schedule_factory: Callable[[], FaultSchedule]
    frames: int = 160
    seed: int = 11

    def __post_init__(self) -> None:
        if self.frames <= 0:
            raise ValueError(f"frames must be positive: {self.frames}")


def perception_scenarios() -> Tuple[PerceptionScenario, ...]:
    """The deterministic perception-fault matrix the degradation study runs.

    Windows sit mid-sequence with several seconds of clean frames after, so
    a working relocalization ladder has room to demonstrate recovery.
    """
    return (
        PerceptionScenario(
            name="drought-short",
            sequence="MH01",
            schedule_factory=lambda: FaultSchedule().add(
                FaultKind.FEATURE_DROUGHT,
                start_s=3.0,
                end_s=4.0,
                keep_fraction=0.12,
            ),
        ),
        PerceptionScenario(
            name="drought-long",
            sequence="MH01",
            schedule_factory=lambda: FaultSchedule().add(
                FaultKind.FEATURE_DROUGHT,
                start_s=3.0,
                end_s=5.5,
                keep_fraction=0.05,
            ),
        ),
        PerceptionScenario(
            name="drought-repeat",
            sequence="MH02",
            schedule_factory=lambda: FaultSchedule()
            .add(
                FaultKind.FEATURE_DROUGHT,
                start_s=2.0,
                end_s=3.0,
                keep_fraction=0.1,
            )
            .add(
                FaultKind.FEATURE_DROUGHT,
                start_s=5.0,
                end_s=6.0,
                keep_fraction=0.1,
            ),
        ),
        PerceptionScenario(
            name="corruption-burst",
            sequence="MH01",
            schedule_factory=lambda: FaultSchedule().add(
                FaultKind.FRAME_CORRUPTION,
                start_s=3.5,
                end_s=5.0,
                bit_flip_fraction=0.3,
                pixel_sigma_px=5.0,
            ),
        ),
        PerceptionScenario(
            name="corruption-then-drought",
            sequence="V101",
            schedule_factory=lambda: FaultSchedule()
            .add(
                FaultKind.FRAME_CORRUPTION,
                start_s=2.5,
                end_s=3.5,
                bit_flip_fraction=0.25,
                pixel_sigma_px=4.0,
            )
            .add(
                FaultKind.FEATURE_DROUGHT,
                start_s=4.0,
                end_s=5.0,
                keep_fraction=0.08,
            ),
        ),
        PerceptionScenario(
            name="throttle-sustained",
            sequence="MH01",
            schedule_factory=lambda: FaultSchedule().add(
                FaultKind.COMPUTE_THROTTLE,
                start_s=2.0,
                end_s=7.0,
                scale=0.5,
            ),
        ),
    )
