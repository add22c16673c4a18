"""Synthetic EuRoC-like micro-aerial-vehicle dataset.

The paper runs ORB-SLAM on the EuRoC MAV dataset's eleven sequences
(MH01-MH05 in an industrial machine hall, V101-V203 in a Vicon room).  The
raw imagery is not redistributable and needs no camera pipeline for our
purposes, so this module synthesizes geometrically faithful stand-ins:

* a 3D landmark cloud for the environment,
* a smooth figure-flight trajectory with per-sequence speed/texture
  difficulty matching the EuRoC easy/medium/difficult grading,
* per-frame landmark observations projected through a pinhole camera with
  pixel noise, plus spurious detections.

Downstream, the SLAM pipeline consumes only (keypoints, descriptors, ground
truth) — exactly what the real pipeline extracts from real frames.
"""

from __future__ import annotations

import enum
import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np


class Difficulty(enum.Enum):
    EASY = "easy"
    MEDIUM = "medium"
    DIFFICULT = "difficult"


@dataclass(frozen=True)
class SequenceSpec:
    """Static description of one EuRoC-like sequence."""

    name: str
    environment: str  # "machine_hall" or "vicon_room"
    difficulty: Difficulty
    duration_s: float
    mean_speed_m_s: float
    landmark_count: int
    pixel_noise: float


#: The eleven EuRoC sequences with difficulty grading mirroring the dataset.
EUROC_SEQUENCES: Dict[str, SequenceSpec] = {
    "MH01": SequenceSpec("MH01", "machine_hall", Difficulty.EASY, 18.0, 0.6, 900, 0.4),
    "MH02": SequenceSpec("MH02", "machine_hall", Difficulty.EASY, 15.0, 0.7, 880, 0.4),
    "MH03": SequenceSpec("MH03", "machine_hall", Difficulty.MEDIUM, 13.0, 1.4, 760, 0.6),
    "MH04": SequenceSpec("MH04", "machine_hall", Difficulty.DIFFICULT, 10.0, 2.0, 600, 0.9),
    "MH05": SequenceSpec("MH05", "machine_hall", Difficulty.DIFFICULT, 11.0, 1.9, 620, 0.9),
    "V101": SequenceSpec("V101", "vicon_room", Difficulty.EASY, 14.0, 0.5, 700, 0.4),
    "V102": SequenceSpec("V102", "vicon_room", Difficulty.MEDIUM, 12.0, 1.2, 620, 0.6),
    "V103": SequenceSpec("V103", "vicon_room", Difficulty.DIFFICULT, 10.0, 1.8, 520, 0.9),
    "V201": SequenceSpec("V201", "vicon_room", Difficulty.EASY, 14.0, 0.6, 680, 0.4),
    "V202": SequenceSpec("V202", "vicon_room", Difficulty.MEDIUM, 12.0, 1.3, 600, 0.6),
    "V203": SequenceSpec("V203", "vicon_room", Difficulty.DIFFICULT, 10.0, 2.1, 500, 1.0),
}

FRAME_RATE_HZ = 20.0
IMAGE_WIDTH = 752
IMAGE_HEIGHT = 480
DESCRIPTOR_BYTES = 32  # ORB descriptors are 256-bit


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera (EuRoC-like intrinsics)."""

    fx: float = 458.0
    fy: float = 457.0
    cx: float = IMAGE_WIDTH / 2.0
    cy: float = IMAGE_HEIGHT / 2.0
    width: int = IMAGE_WIDTH
    height: int = IMAGE_HEIGHT

    def project(self, point_camera: np.ndarray) -> Tuple[float, float]:
        """Project a camera-frame 3D point to pixels; z must be positive."""
        x, y, z = point_camera
        if z <= 1e-6:
            raise ValueError(f"point behind camera: z={z}")
        return (self.fx * x / z + self.cx, self.fy * y / z + self.cy)

    def in_view(self, u: float, v: float) -> bool:
        return 0.0 <= u < self.width and 0.0 <= v < self.height


@dataclass
class Frame:
    """One camera frame: observed landmark ids, pixels, and descriptors."""

    index: int
    timestamp_s: float
    true_position_m: np.ndarray
    true_yaw_rad: float
    landmark_ids: np.ndarray      # (N,) int, -1 for spurious detections
    keypoints_px: np.ndarray      # (N, 2) float
    descriptors: np.ndarray       # (N, 32) uint8

    @property
    def observation_count(self) -> int:
        return int(self.landmark_ids.size)


def _yaw_rotation(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _draw_noise(
    rng: np.random.Generator,
    count: int,
    noise_bits: int,
    sigma: float,
    spurious: int,
    width: float,
    height: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One frame's draws: ``(noise, bits, clutter_px, clutter)``.

    The values, and ``rng``'s state after them, are those of the plain
    calls: per landmark ``normal(0, sigma)`` twice (the (count, 2) pixel
    ``noise``) and ``integers(0, 256, size=noise_bits)`` (its row of the
    flat int64 ``bits``), then per spurious detection ``uniform(0, width)``
    and ``uniform(0, height)`` (a row of ``clutter_px``) and
    ``integers(0, 256, size=32, dtype=np.uint8)`` (a row of ``clutter``).

    The integer draws are taken as raw PCG64 words and decoded after the
    loop.  NumPy feeds both kinds 32-bit halves through the bit
    generator's one-half buffer, low half first: a value below 256 is
    ``half >> 24`` (Lemire's rejection threshold is 0 for a range of 256),
    and a byte draw reads four bytes from each half, low byte first.  The
    normals and uniforms take whole words and leave the buffer alone, so
    the integer draws read one stream of halves: the half buffered on
    entry, then both halves of every raw word.  An odd ``noise_bits``
    leaves a half over, which goes back into the buffer on exit.  The
    normals are ziggurat draws of varying length between the words, so the
    draws stay in a per-landmark loop.  ``spurious`` must be positive.
    """
    bit_generator = rng.bit_generator
    entry = bit_generator.state
    carried = buffered = int(entry["has_uint32"])
    standard_normal, random, random_raw = (
        rng.standard_normal, rng.random, bit_generator.random_raw)
    normals: List[np.ndarray] = []
    uniforms: List[np.ndarray] = []
    words: List[np.ndarray] = []
    for _ in range(count):
        normals.append(standard_normal(2))
        drawn = (noise_bits - carried + 1) // 2
        words.append(random_raw(drawn))
        carried += 2 * drawn - noise_bits
    # 32 bytes are 8 halves: 4 words whether or not a half is carried.
    for _ in range(spurious):
        uniforms.append(random(2))
        words.append(random_raw(DESCRIPTOR_BYTES // 8))
    raw = np.concatenate(words)
    halves = np.empty(buffered + 2 * raw.size, np.uint32)
    halves[:buffered] = entry["uinteger"]
    halves[buffered::2] = raw & 0xFFFFFFFF
    halves[buffered + 1::2] = raw >> 32
    used = count * noise_bits
    bits = (halves[:used] >> 24).astype(np.int64)
    clutter_halves = halves[used:used + spurious * DESCRIPTOR_BYTES // 4, None]
    clutter = clutter_halves >> np.array([0, 8, 16, 24], dtype=np.uint32)
    # NumPy keeps the last word's high half even once it is read.
    exit_state = bit_generator.state
    exit_state["has_uint32"] = carried
    exit_state["uinteger"] = int(raw[-1] >> 32)
    bit_generator.state = exit_state
    # normal(0, s) is 0.0 + s * z and uniform(0, w) is 0.0 + w * u: the
    # 0.0 + turns a -0.0 into 0.0 as they do.
    scale = np.array([width, height], dtype=float)
    return (
        0.0 + sigma * np.reshape(normals, (count, 2)),
        bits,
        0.0 + scale * np.reshape(uniforms, (spurious, 2)),
        clutter.astype(np.uint8).reshape(spurious, DESCRIPTOR_BYTES),
    )


@dataclass
class SyntheticSequence:
    """A fully generated sequence: landmarks, trajectory, memoized frames."""

    spec: SequenceSpec
    seed: int = 11
    camera: CameraModel = field(default_factory=CameraModel)

    def __post_init__(self) -> None:
        # zlib.crc32, not hash(): str hashing is randomized per process and
        # would make sequence generation unreproducible across runs.
        name_code = zlib.crc32(self.spec.name.encode()) % 10_000
        rng = np.random.default_rng(self.seed + name_code)
        hall = self.spec.environment == "machine_hall"
        extent = np.array([14.0, 10.0, 5.0]) if hall else np.array([6.0, 6.0, 3.0])
        self.landmarks_m = rng.uniform(
            low=-extent / 2.0, high=extent / 2.0, size=(self.spec.landmark_count, 3)
        )
        # Push landmarks outward so the camera orbits inside a shell.
        radii = np.linalg.norm(self.landmarks_m[:, 0:2], axis=1, keepdims=True)
        min_radius = 1.5
        scale = np.maximum(1.0, min_radius / np.maximum(radii, 1e-6))
        self.landmarks_m[:, 0:2] *= scale
        self._descriptor_seeds = rng.integers(
            0, 2**31 - 1, size=self.spec.landmark_count
        )
        # Each landmark's canonical descriptor, drawn once from its own seed.
        self._descriptors = np.array(
            [
                np.random.default_rng(seed).integers(
                    0, 256, size=DESCRIPTOR_BYTES, dtype=np.uint8
                )
                for seed in self._descriptor_seeds.tolist()
            ]
        )
        self._rng = rng
        self._frames: List[Frame] = []

    @property
    def frame_count(self) -> int:
        return int(self.spec.duration_s * FRAME_RATE_HZ)

    def true_pose(self, t: float) -> Tuple[np.ndarray, float]:
        """Ground-truth (position, yaw) at time t: a lissajous-like orbit."""
        radius = 3.0 if self.spec.environment == "machine_hall" else 1.8
        omega = self.spec.mean_speed_m_s / radius
        x = radius * math.cos(omega * t)
        y = radius * math.sin(omega * t)
        z = 1.2 + 0.4 * math.sin(0.5 * omega * t)
        yaw = omega * t + math.pi / 2.0  # tangent heading
        return np.array([x, y, z]), yaw

    def descriptor_for(self, landmark_id: int) -> np.ndarray:
        """The canonical (noise-free) ORB-like descriptor of a landmark."""
        if not 0 <= landmark_id < self.spec.landmark_count:
            raise ValueError(f"landmark id out of range: {landmark_id}")
        return self._descriptors[landmark_id].copy()

    def generate_frame(self, index: int) -> Frame:
        """Frame ``index`` of the canonical in-order pass, as a private copy.

        Frames draw their noise from the sequence's one generator, so the
        first access renders frames 0..index in order and memoizes them:
        frame ``index`` is the same whatever order frames are read in.
        Callers own the returned arrays and may mutate them.
        """
        if not 0 <= index < self.frame_count:
            raise ValueError(
                f"frame index {index} out of range [0, {self.frame_count})"
            )
        while len(self._frames) <= index:
            self._frames.append(self._render(len(self._frames)))
        frame = self._frames[index]
        return Frame(
            index=frame.index,
            timestamp_s=frame.timestamp_s,
            true_position_m=frame.true_position_m.copy(),
            true_yaw_rad=frame.true_yaw_rad,
            landmark_ids=frame.landmark_ids.copy(),
            keypoints_px=frame.keypoints_px.copy(),
            descriptors=frame.descriptors.copy(),
        )

    def _render(self, index: int) -> Frame:
        """Render frame ``index``: visible landmarks plus spurious detections.

        Consumes the sequence generator, so it must run in index order.
        """
        t = index / FRAME_RATE_HZ
        position, yaw = self.true_pose(t)
        # Camera looks along body +x; camera frame: z forward, x right, y down.
        body_from_world = _yaw_rotation(yaw).T
        # Stacked, not one gemm: NumPy runs this as one 3x3 BLAS matvec per
        # landmark, which rounds as ``body_from_world @ d`` does under every
        # OpenBLAS kernel; a gemm or an elementwise sum does not.
        relative = np.matmul(
            body_from_world[None], (self.landmarks_m - position)[:, :, None]
        )[:, :, 0]
        depth = relative[:, 0]
        ids = np.flatnonzero((depth >= 0.3) & (depth <= 12.0))
        x, y, z = -relative[ids, 1], -relative[ids, 2], depth[ids]
        # CameraModel.project's pinhole arithmetic, elementwise.
        camera = self.camera
        u = camera.fx * x / z + camera.cx
        v = camera.fy * y / z + camera.cy
        visible = (0.0 <= u) & (u < camera.width) & (0.0 <= v) & (v < camera.height)
        ids, u, v = ids[visible], u[visible], v[visible]
        noise_bits = {"easy": 2, "medium": 5, "difficult": 10}[
            self.spec.difficulty.value
        ]
        count = int(ids.size)
        # Spurious detections: clutter that matching must reject.
        spurious = int(0.05 * count) + 2
        noise, bits, clutter_px, clutter = _draw_noise(
            self._rng, count, noise_bits, self.spec.pixel_noise, spurious,
            camera.width, camera.height,
        )
        descriptors = self._descriptors[ids]
        # A bit drawn twice flips back, as two sequential XORs would.
        np.bitwise_xor.at(
            descriptors,
            (np.repeat(np.arange(count), noise_bits), bits // 8),
            (1 << (bits % 8)).astype(np.uint8),
        )
        return Frame(
            index=index,
            timestamp_s=t,
            true_position_m=position,
            true_yaw_rad=yaw,
            landmark_ids=np.concatenate([ids, np.full(spurious, -1)], dtype=np.int64),
            keypoints_px=np.concatenate(
                [
                    np.column_stack([u, v]) + noise,
                    clutter_px,
                ]
            ),
            descriptors=np.concatenate([descriptors, clutter]),
        )

    def frames(self) -> Iterator[Frame]:
        for index in range(self.frame_count):
            yield self.generate_frame(index)


def load_sequence(name: str, seed: int = 11) -> SyntheticSequence:
    """Load a named EuRoC-like sequence (MH01-MH05, V101-V203)."""
    key = name.strip().upper()
    if key not in EUROC_SEQUENCES:
        raise KeyError(
            f"unknown sequence {name!r}; available: {sorted(EUROC_SEQUENCES)}"
        )
    return SyntheticSequence(spec=EUROC_SEQUENCES[key], seed=seed)


#: (name, seed)-keyed memo for :func:`cached_sequence`.
_SEQUENCE_CACHE: Dict[Tuple[str, int], SyntheticSequence] = {}


def cached_sequence(name: str, seed: int = 11) -> SyntheticSequence:
    """Memoized :func:`load_sequence` (mirrors ``cached_catalog``).

    Benches and tests re-run the same sequences; sharing one instance
    renders each sequence's frames once (about 0.2 s for MH01 and V203
    together on a 2-vCPU x86_64 host).  Frames and descriptors come out
    as defensive copies, so sharing one sequence across callers is safe
    even for mutating consumers.
    """
    key = (name.strip().upper(), seed)
    sequence = _SEQUENCE_CACHE.get(key)
    if sequence is None:
        sequence = load_sequence(name, seed=seed)
        _SEQUENCE_CACHE[key] = sequence
    return sequence


def clear_sequence_cache() -> None:
    """Drop all memoized sequences (test isolation hook)."""
    _SEQUENCE_CACHE.clear()


def all_sequence_names() -> List[str]:
    """The eleven sequence names in the paper's Figure 17 order."""
    return list(EUROC_SEQUENCES.keys())
