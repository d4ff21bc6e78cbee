"""OBD-II vehicle-speed request and response handling over CAN frames.

Speed is mode 0x01 / PID 0x0D: requested on the broadcast ID 0x7DF and
answered on 0x7E8-0x7EF with the km/h value in a single byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canlog import CanFrame

OBD_REQUEST_ID = 0x7DF
OBD_RESPONSE_ID_FIRST = 0x7E8
OBD_RESPONSE_ID_LAST = 0x7EF
SPEED_MODE = 0x01
SPEED_PID = 0x0D

# 2-byte request (mode, PID), remainder padded with 0xAA.
SPEED_REQUEST_DATA = bytes([0x02, SPEED_MODE, SPEED_PID, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA])


@dataclass(frozen=True)
class ObdSpeedReading:
    """A decoded speed response: km/h as carried in the single value byte."""

    timestamp: float
    speed_kmh: int

    def __post_init__(self):
        if not 0 <= self.speed_kmh <= 255:
            raise ValueError(f"speed {self.speed_kmh} outside the single-byte range 0-255")

    @property
    def speed_ms(self) -> float:
        return self.speed_kmh / 3.6


def encode_speed_request(timestamp: float = 0.0, interface: str = "can0") -> CanFrame:
    """The standard speed request frame, `7DF#02010DAAAAAAAAAA`."""
    return CanFrame(timestamp=timestamp, interface=interface, id=OBD_REQUEST_ID, data=SPEED_REQUEST_DATA)


def encode_speed_response(
    speed_kmh: int, timestamp: float = 0.0, interface: str = "can0", response_id: int = OBD_RESPONSE_ID_FIRST
) -> CanFrame:
    """Build the response frame an ECU would send for a given speed."""
    if not 0 <= speed_kmh <= 255:
        raise ValueError(f"speed {speed_kmh} outside the single-byte range 0-255")
    data = bytes([0x03, 0x40 | SPEED_MODE, SPEED_PID, speed_kmh, 0xAA, 0xAA, 0xAA, 0xAA])
    return CanFrame(timestamp=timestamp, interface=interface, id=response_id, data=data)


def response_speed_kmh(frame_id: int, data: bytes) -> int | None:
    """The km/h a speed response carries, or None when the frame is not one.

    A speed response has an ID in 0x7E8-0x7EF (any of the up-to-eight
    responders), echoes mode 0x41 and PID 0x0D, and carries the speed in
    the fourth data byte.
    """
    if not OBD_RESPONSE_ID_FIRST <= frame_id <= OBD_RESPONSE_ID_LAST:
        return None
    if len(data) < 4:
        return None
    if data[1] != (0x40 | SPEED_MODE) or data[2] != SPEED_PID:
        return None
    return data[3]


def decode_speed_response(frame: CanFrame) -> ObdSpeedReading | None:
    """Decode a frame as a speed response (see response_speed_kmh), or None
    when it is not one."""
    speed = response_speed_kmh(frame.id, frame.data)
    if speed is None:
        return None
    return ObdSpeedReading(timestamp=frame.timestamp, speed_kmh=speed)
