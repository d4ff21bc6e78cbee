"""End-to-end path reconstruction from a filtered CAN log.

infer_path runs stages that pass plain data. decode_log sorts the frames,
rejects a log whose first and last frames lie more than a day apart, and
decodes them once into (timestamp, signal, value) samples of steering
angle and OBD speed, building no object per frame; window_aggregates cuts
them into fixed windows anchored at the first frame, each the mean of its
samples (holding the previous value when a category has none);
window_controls clamps each window's angle to steer_max and says whether
it may turn (at most speed_max), the only code that reads those two;
dead_reckon advances a batch of windows with the bicycle model plus a
geodesic forward step, on plain floats. Each batch is snapped to the road
network, and the length difference between the snapped and dead-reckoned
polylines is carried into the next batch's first window so the track does
not fall behind. A batch the matcher cannot snap keeps its raw points.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Sequence

from .canlog import CanFrame
from .geokin import (
    LatLon,
    VehiclePose,
    VehicleSpec,
    angular_speed,
    geodesic_forward,
    geodesic_inverse,
    heading_delta,
    polyline_length,
    wrap_bearing,
)
from .mapmatch import MatchServiceError, UnmatchedGapError
from .obd import response_speed_kmh
from .reveng import AngleDecoder, payload_angle
from .trackeval import Track, write_gpx


class InferenceError(ValueError):
    pass


# Longest time between a log's first and last frame. A longer span is a
# stray timestamp (one frame stamped 0 in an epoch-stamped log would ask
# for about 1.7e10 windows) or several captures run together.
MAX_LOG_SPAN_S = 24 * 3600.0

# Consecutive batches the match service may fail on (MatchServiceError)
# before the rest of the drive is no longer sent: each failure can wait out
# the service's timeout, so a service that hangs mid-track costs this many
# timeouts, not one per remaining batch.
MAX_SERVICE_FAILURES = 2


@dataclass(frozen=True)
class InferenceParams:
    t_window: float = 0.1  # seconds
    speed_max: float = 50.0  # km/h; faster windows are forced straight
    steer_max: float = 35.0  # degrees; physical steering limit
    max_interpolation_points: int = 30  # windows per map-matching batch

    def __post_init__(self):
        batch = self.max_interpolation_points
        if isinstance(batch, bool) or not isinstance(batch, int):
            raise ValueError(f"max_interpolation_points must be an integer, got {batch!r}")
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
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

    def add_fallback(self, start: int, end: int) -> None:
        """Note raw track indices start..end, merged into the last span when
        it ends at start - 1."""
        spans = self.fallback_spans
        if spans and spans[-1][1] == start - 1:
            spans[-1] = (spans[-1][0], end)
        else:
            spans.append((start, end))

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
# (clamped steering angle in degrees, speed in m/s, may turn) of one window
Control = tuple[float, float, bool]


def decode_signals(frames: Sequence[CanFrame], decoder: AngleDecoder) -> list[Sample]:
    """Every decodable steering angle and OBD-II speed, in frame order.

    Frames with the decoder's ID are angles (too-short ones are skipped);
    any other frame counts only if it is a speed response. This is the one
    decode pass of the pipeline: inference and ``canpath decode`` share it.
    Payloads go straight to reveng.payload_angle and obd.response_speed_kmh,
    so no object is built per frame but the sample tuple.
    """
    samples: list[Sample] = []
    angle_id = decoder.id
    for timestamp, _interface, frame_id, data in frames:
        if frame_id == angle_id:
            value = payload_angle(decoder, data)
            signal = ANGLE
        else:
            value = response_speed_kmh(frame_id, data)
            signal = SPEED
        if value is not None:
            samples.append((timestamp, signal, value))
    return samples


def decode_log(frames: Sequence[CanFrame], decoder: AngleDecoder) -> tuple[list[Sample], float, float]:
    """The frames' samples in time order (see decode_signals) and the times
    of the first and last frame; InferenceError for an empty log, one
    without a decodable steering angle, or one whose first and last frames
    lie more than MAX_LOG_SPAN_S apart."""
    if not frames:
        raise InferenceError("empty log: nothing to infer")
    frames = sorted(frames, key=itemgetter(0))
    t0, t_end = frames[0].timestamp, frames[-1].timestamp
    if t_end - t0 > MAX_LOG_SPAN_S:
        raise InferenceError(
            f"log spans {t0!r} s to {t_end!r} s, more than {MAX_LOG_SPAN_S:.0f} s: "
            "a stray timestamp or mixed captures"
        )
    samples = decode_signals(frames, decoder)
    if not any(signal == ANGLE for _t, signal, _v in samples):
        raise InferenceError(f"no decodable steering frames for ID 0x{decoder.id:03X}")
    return samples, t0, t_end


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


def window_aggregates(
    samples: Sequence[Sample], t0: float, t_end: float, t_window: float
) -> list[WindowAggregate]:
    """One aggregate per window of ``t_window`` seconds, from ``t0`` (the
    first frame) to ``t_end`` (the last), in time order.

    Window k holds the samples stamped in [t0 + k*t_window, t0 + (k+1)*t_window);
    the last window also holds the final frame, which sits exactly on its
    closing edge. ``samples`` must be in time order. The aggregates depend
    on nothing but the samples and the window length, so runs that differ
    only in their other parameters share them.
    """
    n_windows = int((t_end - t0) / t_window) + 1
    times = [t for t, _signal, _v in samples]
    aggregates: list[WindowAggregate] = []
    aggregate = WindowAggregate(avg_angle_deg=0.0, avg_speed_ms=0.0)
    sample_idx = 0
    for k in range(n_windows):
        first = sample_idx
        if k == n_windows - 1:
            sample_idx = len(samples)
        else:
            sample_idx = bisect_left(times, t0 + (k + 1) * t_window, sample_idx)
        aggregate = window_aggregate(samples[first:sample_idx], aggregate)
        aggregates.append(aggregate)
    return aggregates


def window_controls(windows: Sequence[WindowAggregate], params: InferenceParams) -> list[Control]:
    """Per window, all that dead reckoning reads of it: the steering angle
    clamped to ``steer_max``, the speed in m/s, and whether the car may
    turn (not above ``speed_max``). Runs equal in these, the window length
    and the batch size make the same track; the tuner keys runs on that."""
    steer_max, speed_max = params.steer_max, params.speed_max
    return [
        (
            max(-steer_max, min(steer_max, w.avg_angle_deg)),
            w.avg_speed_ms,
            w.avg_speed_ms * 3.6 <= speed_max + 1e-9,
        )
        for w in windows
    ]


def dead_reckon(
    controls: Sequence[Control],
    pose: VehiclePose,
    prev_start: LatLon | None,
    carry: float,
    wheelbase: float,
    t_window: float,
) -> tuple[list[LatLon], VehiclePose, LatLon | None]:
    """One batch of windows driven from ``pose``: the point each window
    ends at, the final pose, and where the last window started.

    Each window turns the bearing by the bicycle model, then steps forward
    along it. A window that may not turn (a car cannot turn at that speed)
    is straightened first: it takes the bearing of the chord from where the
    window before it started, when that chord has length. The first window
    also travels ``carry`` metres. Position and bearing are plain floats
    inside the loop; the pose is built once, at the end.
    """
    points: list[LatLon] = []
    lat, lon, bearing = pose.lat, pose.lon, pose.bearing
    for angle, speed, may_turn in controls:
        distance = speed * t_window + carry
        carry = 0.0
        bearing = wrap_bearing(bearing - heading_delta(angular_speed(speed, angle, wheelbase), t_window))
        window_start = (lat, lon)
        if not may_turn and prev_start is not None:
            chord, chord_bearing = geodesic_inverse(prev_start, window_start)
            if chord > 0.0:
                bearing = chord_bearing
        point = geodesic_forward(window_start, bearing, distance)
        points.append(point)
        lat, lon = point
        if lon == 180.0:  # VehiclePose's fold: the next window starts at -180.0
            lon = -180.0
        prev_start = window_start
    return points, VehiclePose(lat, lon, bearing), prev_start


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
    inputs produce identical GPX bytes. When a batch has no match (an
    UnmatchedGapError) or the match service fails on it (a
    MatchServiceError), its raw points are kept and noted in the
    diagnostics as a fallback span, merged with the span just before it,
    and the run goes on. After MAX_SERVICE_FAILURES batches in a row fail
    with a MatchServiceError, later batches are not sent and keep their raw
    points in the same span. A MatchServiceError before any batch has
    matched ends the run, so an unreachable service is an error, not a raw
    track; any other matcher error ends it too.
    """
    params = params or InferenceParams()
    samples, t0, t_end = decode_log(frames, decoder)
    controls = window_controls(window_aggregates(samples, t0, t_end, params.t_window), params)

    pose, prev_start, carry = start, None, 0.0
    inferred: list[LatLon] = []
    diag = Diagnostics(windows=len(controls))
    size = params.max_interpolation_points
    service_failures = 0
    for first in range(0, len(controls), size):
        batch, pose, prev_start = dead_reckon(
            controls[first:first + size], pose, prev_start, carry, vehicle.wheelbase, params.t_window
        )
        carry = 0.0
        if matcher is None:
            inferred.extend(batch)
            continue
        matched = None
        if service_failures < MAX_SERVICE_FAILURES:
            try:
                matched = matcher.match(batch).matched_points
                service_failures = 0
            except UnmatchedGapError:
                service_failures = 0
            except MatchServiceError:
                if diag.batches_matched == 0:
                    raise
                service_failures += 1
        if matched is None:
            diag.add_fallback(len(inferred), len(inferred) + len(batch) - 1)
            inferred.extend(batch)
            continue
        inferred.extend(matched)
        carry = abs(polyline_length(matched) - polyline_length(batch))
        diag.total_carry += carry
        diag.batches_matched += 1
        pose = VehiclePose(*matched[-1], pose.bearing)
        # The previous window's travel chord must share the snapped frame,
        # or the straightening correction whips the bearing around the snap
        # discontinuity. The matched images of the last two window
        # positions give the on-road chord.
        prev_start = matched[-2] if len(matched) >= 2 else None

    track = Track(points=tuple(inferred))
    return InferenceResult(track=track, gpx=write_gpx(track), diagnostics=diag)
