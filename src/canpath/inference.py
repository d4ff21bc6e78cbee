"""End-to-end path reconstruction from a filtered CAN log.

The log is decoded once into steering-angle and OBD speed samples, then
cut into fixed windows anchored at the first frame. Each window averages
its samples (holding the previous value when a category has none),
advances the pose with the bicycle model plus a geodesic forward step, and
buffers the dead-reckoned point. Every max_interpolation_points windows the
buffer is snapped to the road network; the length difference between the
snapped and dead-reckoned polylines is carried into the next window's
travel so the track does not fall behind.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Sequence

from .canlog import CanFrame
from .geokin import (
    LatLon,
    VehiclePose,
    VehicleSpec,
    apply_heading,
    geodesic_forward,
    geodesic_inverse,
    kinematic_step,
    polyline_length,
)
from .mapmatch import UnmatchedGapError
from .obd import decode_speed_response
from .reveng import AngleDecodeError, AngleDecoder, decode_angle
from .trackeval import Track, write_gpx


class InferenceError(ValueError):
    pass


@dataclass(frozen=True)
class InferenceParams:
    t_window: float = 0.1  # seconds
    speed_max: float = 50.0  # km/h; faster windows are forced straight
    steer_max: float = 35.0  # degrees; physical steering limit
    max_interpolation_points: int = 30  # windows per map-matching batch

    def __post_init__(self):
        if self.t_window <= 0 or self.speed_max <= 0 or self.max_interpolation_points <= 0:
            raise ValueError("all inference parameters must be positive")
        if not 0 < self.steer_max <= 90:
            raise ValueError("steer_max must be in (0, 90] degrees")


@dataclass(frozen=True)
class WindowAggregate:
    avg_angle_deg: float
    avg_speed_ms: float
    angle_samples: int = 0
    speed_samples: int = 0


@dataclass
class Diagnostics:
    windows: int = 0
    batches_matched: int = 0
    fallback_spans: list[tuple[int, int]] = field(default_factory=list)
    total_carry: float = 0.0

    def report(self) -> str:
        lines = [
            f"windows processed: {self.windows}",
            f"batches matched: {self.batches_matched}",
            f"fallback spans: {len(self.fallback_spans)}",
        ]
        for start, end in self.fallback_spans:
            lines.append(f"  raw points kept for track indices {start}-{end}")
        lines.append(f"total carry distance: {self.total_carry:.2f} m")
        return "\n".join(lines) + "\n"


@dataclass
class InferenceResult:
    track: Track
    gpx: str
    diagnostics: Diagnostics


# (timestamp, ANGLE or SPEED, value): degrees for ANGLE, integer km/h for SPEED
Sample = tuple[float, str, float]
ANGLE = "angle_deg"
SPEED = "speed_kmh"


def decode_signals(frames: Sequence[CanFrame], decoder: AngleDecoder) -> list[Sample]:
    """Every decodable steering angle and OBD-II speed, in frame order.

    Frames with the decoder's ID are angles (malformed ones are skipped);
    any other frame counts only if it is a speed response. This is the one
    decode pass of the pipeline: inference and ``canpath decode`` share it.
    """
    samples: list[Sample] = []
    for frame in frames:
        if frame.id == decoder.id:
            try:
                samples.append((frame.timestamp, ANGLE, decode_angle(decoder, frame).angle_deg))
            except AngleDecodeError:
                continue
        else:
            reading = decode_speed_response(frame)
            if reading is not None:
                samples.append((reading.timestamp, SPEED, reading.speed_kmh))
    return samples


def window_aggregate(samples: Sequence[Sample], previous: WindowAggregate) -> WindowAggregate:
    """Mean angle (degrees) and speed (m/s) over one window's samples.

    OBD responses arrive slower than angle broadcasts, so a category with
    no samples inherits the previous window's value instead of zeroing out.
    """
    angles = [value for _t, signal, value in samples if signal == ANGLE]
    speeds = [value for _t, signal, value in samples if signal == SPEED]
    avg_angle = sum(angles) / len(angles) if angles else previous.avg_angle_deg
    avg_speed = (sum(speeds) / len(speeds)) / 3.6 if speeds else previous.avg_speed_ms
    return WindowAggregate(
        avg_angle_deg=avg_angle,
        avg_speed_ms=avg_speed,
        angle_samples=len(angles),
        speed_samples=len(speeds),
    )


def clamp_steer(angle_deg: float, steer_max: float) -> float:
    return max(-steer_max, min(steer_max, angle_deg))


def straighten_if_fast(
    pose: VehiclePose,
    prev_window_start: LatLon | None,
    speed_ms: float,
    speed_max_kmh: float,
) -> VehiclePose:
    """Above the turning speed limit, force the bearing to the previous
    window's travel direction: a car cannot turn at that speed."""
    if prev_window_start is None:
        return pose
    if speed_ms * 3.6 <= speed_max_kmh + 1e-9:
        return pose
    distance, bearing = geodesic_inverse(prev_window_start, pose.position)
    if distance <= 0.0:
        return pose
    return replace(pose, bearing=bearing)


def infer_path(
    frames: Sequence[CanFrame],
    decoder: AngleDecoder,
    vehicle: VehicleSpec,
    start: VehiclePose,
    params: InferenceParams | None = None,
    matcher=None,
) -> InferenceResult:
    """Reconstruct the driven path from a steering+speed CAN log.

    ``matcher`` is any object with ``match(points) -> MatchResult`` (see
    mapmatch.GraphMatcher / ExternalMatcher); None disables snapping and
    yields the raw dead-reckoned track. Output is deterministic: identical
    inputs produce identical GPX bytes. When a batch cannot be matched the
    raw points are kept and noted in the diagnostics; the run never aborts
    mid-track.
    """
    params = params or InferenceParams()
    if not frames:
        raise InferenceError("empty log: nothing to infer")
    frames = sorted(frames, key=lambda f: f.timestamp)
    samples = decode_signals(frames, decoder)
    if not any(signal == ANGLE for _t, signal, _v in samples):
        raise InferenceError(f"no decodable steering frames for ID 0x{decoder.id:03X}")

    t0 = frames[0].timestamp
    t_end = frames[-1].timestamp
    n_windows = int((t_end - t0) / params.t_window) + 1

    pose = start
    carry_distance = 0.0
    pending: list[LatLon] = []
    inferred: list[LatLon] = []
    diag = Diagnostics()
    aggregate = WindowAggregate(avg_angle_deg=0.0, avg_speed_ms=0.0)
    prev_window_start: LatLon | None = None
    times = [t for t, _signal, _v in samples]  # ascending: the frames are sorted
    sample_idx = 0

    def flush_batch() -> None:
        nonlocal pose, carry_distance, prev_window_start
        if not pending:
            return
        if matcher is None:
            inferred.extend(pending)
        else:
            first = len(inferred)
            try:
                result = matcher.match(list(pending))
            except UnmatchedGapError:
                inferred.extend(pending)
                diag.fallback_spans.append((first, len(inferred) - 1))
            else:
                inferred.extend(result.matched_points)
                carry_distance = abs(
                    polyline_length(result.matched_points) - polyline_length(pending)
                )
                diag.total_carry += carry_distance
                diag.batches_matched += 1
                last_lat, last_lon = result.matched_points[-1]
                pose = VehiclePose(last_lat, last_lon, pose.bearing)
                # The previous window's travel chord must share the snapped
                # frame, or the straightening correction whips the bearing
                # around the snap discontinuity. The matched images of the
                # last two window positions give the on-road chord.
                if len(result.matched_points) >= 2:
                    prev_window_start = result.matched_points[-2]
                else:
                    prev_window_start = None
        pending.clear()

    for k in range(n_windows):
        first = sample_idx
        if k == n_windows - 1:
            # the final frame sits exactly on the last window's closing edge
            sample_idx = len(samples)
        else:
            sample_idx = bisect_left(times, t0 + (k + 1) * params.t_window, sample_idx)

        aggregate = window_aggregate(samples[first:sample_idx], aggregate)
        distance = aggregate.avg_speed_ms * params.t_window + carry_distance
        carry_distance = 0.0

        angle = clamp_steer(aggregate.avg_angle_deg, params.steer_max)
        step = kinematic_step(aggregate.avg_speed_ms, angle, vehicle.wheelbase, params.t_window)
        pose = apply_heading(pose, step.heading_delta)
        window_start = pose.position
        pose = straighten_if_fast(pose, prev_window_start, aggregate.avg_speed_ms, params.speed_max)
        lat, lon = geodesic_forward(pose, distance)
        pose = VehiclePose(lat, lon, pose.bearing)
        pending.append((lat, lon))
        prev_window_start = window_start
        diag.windows += 1

        if len(pending) >= params.max_interpolation_points:
            flush_batch()

    flush_batch()

    track = Track(points=tuple(inferred))
    return InferenceResult(track=track, gpx=write_gpx(track), diagnostics=diag)
