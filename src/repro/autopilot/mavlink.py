"""A MAVLink-like message protocol.

The paper's drone uses MAVLink to connect the autopilot, the on-board
companion computer, and the ground station.  This is a compact functional
equivalent: framed, checksummed, sequence-numbered messages over an
in-process link with optional loss — enough to exercise the same
command/telemetry paths the real stack uses.
"""

from __future__ import annotations

import binascii
import enum
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

MAGIC = 0xFD  # MAVLink v2 magic byte


class MessageType(enum.IntEnum):
    HEARTBEAT = 0
    SET_POSITION_TARGET = 84
    COMMAND_LONG = 76
    STATE_REPORT = 30
    BATTERY_STATUS = 147
    MISSION_ITEM = 39
    ACK = 77


class Command(enum.IntEnum):
    """COMMAND_LONG command ids (MAV_CMD subset)."""

    ARM_DISARM = 400
    TAKEOFF = 22
    LAND = 21
    RETURN_TO_LAUNCH = 20
    SET_MODE = 176


#: ACK payload result codes (MAV_RESULT subset).
ACK_ACCEPTED = 0.0
ACK_FAILED = 4.0


@dataclass(frozen=True)
class Message:
    """One protocol message."""

    message_type: MessageType
    payload: Tuple[float, ...] = ()
    sequence: int = 0

    def encode(self) -> bytes:
        """Frame: magic, type, seq, count, float payload, checksum."""
        body = struct.pack(
            f"<BBHB{len(self.payload)}f",
            MAGIC,
            int(self.message_type),
            self.sequence & 0xFFFF,
            len(self.payload),
            *self.payload,
        )
        return body + struct.pack("<H", _checksum(body))


#: Every byte value with its bit order reversed.
_REFLECTED = bytes(int(f"{value:08b}"[::-1], 2) for value in range(256))


def _checksum(data: bytes) -> int:
    """X.25-style CRC-16 (the accumulation MAVLink uses: CRC-16/MCRF4XX).

    MCRF4XX is the bit-reflected twin of the CRC-16 ``binascii.crc_hqx``
    computes, so it is that CRC of the bit-reversed bytes, bit-reversed.
    """
    crc = binascii.crc_hqx(data.translate(_REFLECTED), 0xFFFF)
    return _REFLECTED[crc & 0xFF] << 8 | _REFLECTED[crc >> 8]


class FrameError(ValueError):
    """Raised on malformed or corrupted frames."""


def decode(frame: bytes) -> Message:
    """Parse and checksum-verify one frame."""
    if len(frame) < 7:
        raise FrameError(f"frame too short: {len(frame)} bytes")
    body, received_crc = frame[:-2], struct.unpack("<H", frame[-2:])[0]
    if _checksum(body) != received_crc:
        raise FrameError("checksum mismatch")
    magic, message_type, sequence, count = struct.unpack("<BBHB", body[:5])
    if magic != MAGIC:
        raise FrameError(f"bad magic byte: {magic:#x}")
    expected = 5 + 4 * count
    if len(body) != expected:
        raise FrameError(f"payload length mismatch: {len(body)} vs {expected}")
    payload = struct.unpack(f"<{count}f", body[5:]) if count else ()
    return Message(
        message_type=MessageType(message_type),
        payload=payload,
        sequence=sequence,
    )


@dataclass
class GilbertElliott:
    """Two-state Markov burst-loss channel (Gilbert–Elliott).

    Real radio links lose frames in bursts (fades, interference), not
    independently.  The channel sits in a GOOD or BAD state, transitions
    with fixed per-frame probabilities, and drops frames at a state-dependent
    rate.  ``loss_bad=1.0, loss_good=0.0`` gives clean bursty outages; equal
    loss rates degenerate to the i.i.d. model.
    """

    p_good_to_bad: float = 0.02
    p_bad_to_good: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.9
    in_bad: bool = False

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def step(self, rng: np.random.Generator) -> bool:
        """Advance one frame; return True if that frame is lost."""
        if self.in_bad:
            if rng.random() < self.p_bad_to_good:
                self.in_bad = False
        elif rng.random() < self.p_good_to_bad:
            self.in_bad = True
        loss = self.loss_bad if self.in_bad else self.loss_good
        return bool(rng.random() < loss)

    @property
    def steady_state_loss(self) -> float:
        """Long-run average loss rate of the channel."""
        total = self.p_good_to_bad + self.p_bad_to_good
        if total == 0.0:
            return self.loss_bad if self.in_bad else self.loss_good
        bad_fraction = self.p_good_to_bad / total
        return bad_fraction * self.loss_bad + (1.0 - bad_fraction) * self.loss_good


@dataclass
class Link:
    """An in-process unreliable link carrying framed messages.

    Loss follows either the i.i.d. ``loss_probability`` (the backward-
    compatible default) or, when ``burst_model`` is set, a Gilbert–Elliott
    burst channel.  With ``latency_s``/``jitter_s`` set, frames become
    receivable only after their delivery time relative to the link clock
    (``advance_to``); the default zero-latency link delivers immediately.
    Setting ``blackout`` drops every frame — the total-outage fault.
    """

    loss_probability: float = 0.0
    seed: int = 9
    burst_model: Optional[GilbertElliott] = None
    latency_s: float = 0.0
    jitter_s: float = 0.0
    blackout: bool = False
    time_s: float = field(default=0.0)
    sent: int = field(default=0)
    delivered: int = field(default=0)
    dropped: int = field(default=0)
    _queue: List[Tuple[float, bytes]] = field(default_factory=list)
    _sequence: int = field(default=0)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1): {self.loss_probability}"
            )
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency and jitter cannot be negative")
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)

    @property
    def next_sequence(self) -> int:
        """Sequence number the next ``send`` will stamp (for ACK matching)."""
        return self._sequence

    def advance_to(self, time_s: float) -> None:
        """Move the link clock forward (never backward)."""
        self.time_s = max(self.time_s, time_s)

    def _lost(self) -> bool:
        assert self._rng is not None  # seeded in __post_init__
        if self.blackout:
            return True
        if self.burst_model is not None:
            return self.burst_model.step(self._rng)
        return bool(self._rng.random() < self.loss_probability)

    def send(self, message_type: MessageType, payload: Tuple[float, ...] = ()) -> None:
        """Frame and transmit; the link may drop or delay it."""
        message = Message(
            message_type=message_type, payload=payload, sequence=self._sequence
        )
        self._sequence += 1
        self.sent += 1
        if self._lost():
            self.dropped += 1
            return
        delivery_s = self.time_s + self.latency_s
        if self.jitter_s > 0.0:
            assert self._rng is not None  # seeded in __post_init__
            delivery_s += float(self._rng.uniform(0.0, self.jitter_s))
        self._queue.append((delivery_s, message.encode()))
        self.delivered += 1

    def receive(self) -> Optional[Message]:
        """Pop and decode the next deliverable frame, or None when idle."""
        if not self._queue:
            return None
        delivery_s, frame = self._queue[0]
        if delivery_s > self.time_s + 1e-12:
            return None  # still in flight
        self._queue.pop(0)
        return decode(frame)

    def drain(self) -> List[Message]:
        """Receive everything deliverable."""
        messages = []
        while True:
            message = self.receive()
            if message is None:
                return messages
            messages.append(message)
