"""End-to-end path reconstruction from a filtered CAN log.

infer_path runs stages that pass plain data. decode_log works on a
canlog.FrameLog, the columns parse_log gives (any other frame sequence is
put in that form first). It rejects a log whose first and last frames lie
more than a day apart, decodes each distinct frame body once
(decode_bodies), and selects four float columns from the stamp and body
columns: the times and values of the steering angles and of the OBD
speeds, each column stably sorted by time only when it is out of order. It
builds no object per frame: the decoded log is 16 bytes a sample.
window_aggregates cuts the columns into fixed windows anchored at the
first frame, each an (angle, speed) tuple of its samples' means (holding
the previous value when a category has none); window_controls clamps each
window's angle to steer_max and says whether it may turn (at most
speed_max), the only code that reads those two; dead_reckon advances a
batch of windows with the bicycle model plus a geodesic forward step, on
plain floats. Each batch is snapped to the road network, and the length
difference between the snapped and dead-reckoned polylines is carried
into the next batch's first window so the track does not fall behind. A
batch the matcher cannot snap keeps its raw points.

infer_path also takes a CutLog in place of the frames: a log already
decoded and cut into windows of one length, holding no samples. Runs of
one log that differ in their other parameters then share one decode and
one cut; everything after the cut is the same, so the GPX bytes are too.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import compress, islice
from operator import le
from typing import Iterable, Iterator, NamedTuple, Sequence

from .canlog import CanFrame, FrameLog
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

# Most windows one log may be cut into. A day-long log in the tuner's
# shortest default windows (0.05 s) is 1,728,001 windows; a minute in
# 1e-7 s windows would be 600,000,001, more than memory holds.
MAX_WINDOWS = 2_000_000

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
    diagnostics: Diagnostics

    @property
    def gpx(self) -> str:
        """The track as GPX text, serialized on each read (see write_gpx)."""
        return write_gpx(self.track)


# (timestamp, ANGLE or SPEED, value): degrees for ANGLE, integer km/h for SPEED
Sample = tuple[float, str, float]
ANGLE = "angle_deg"
SPEED = "speed_kmh"
# (mean steering angle in degrees, mean speed in m/s) of one window
Window = tuple[float, float]
# (clamped steering angle in degrees, speed in m/s, may turn) of one window
Control = tuple[float, float, bool]


class Signals(NamedTuple):
    """A decoded log (see decode_log): the times and values of its steering
    angles (degrees) and of its OBD speeds (km/h), four columns in time
    order, and the times of its first and last frame."""

    angle_times: array
    angles: array
    speed_times: array
    speeds: array
    t0: float
    t_end: float


def decode_bodies(log: FrameLog, decoder: AngleDecoder) -> tuple[list, list]:
    """Per body row of the log, its steering angle in degrees and its OBD
    speed in km/h, each None when the body holds none.

    A body with the decoder's ID is an angle (None when too short to hold
    both angle bytes); any other body counts only if it is a speed
    response. This is the one decode rule of the pipeline: decode_log and
    ``canpath decode`` share it, and each row goes once to
    reveng.payload_angle or obd.response_speed_kmh.
    """
    angle_id = decoder.id
    angles: list[float | None] = []
    speeds: list[int | None] = []
    for frame_id, data in zip(log.ids, log.payloads):
        if frame_id == angle_id:
            angles.append(payload_angle(decoder, data))
            speeds.append(None)
        else:
            angles.append(None)
            speeds.append(response_speed_kmh(frame_id, data))
    return angles, speeds


def decode_signals(frames: Iterable[CanFrame], decoder: AngleDecoder) -> Iterator[Sample]:
    """Every decodable steering angle and OBD-II speed, in frame order:
    what decode_bodies reads from each frame's body."""
    log = FrameLog.of(frames)
    angles, speeds = decode_bodies(log, decoder)
    index = log.index
    for t, angle, speed in zip(log.stamps, map(angles.__getitem__, index), map(speeds.__getitem__, index)):
        if angle is not None:
            yield t, ANGLE, angle
        elif speed is not None:
            yield t, SPEED, speed


def _time_ordered(times: array, values: array) -> tuple[array, array]:
    """The two columns stably sorted by time, or as they are when already in
    order. A signal's samples then stand as they would after a stable sort
    of the frames by time, so no sorted frame list is built."""
    if all(map(le, times, islice(times, 1, None))):
        return times, values
    order = sorted(range(len(times)), key=times.__getitem__)
    return array("d", map(times.__getitem__, order)), array("d", map(values.__getitem__, order))


def decode_log(frames: Sequence[CanFrame], decoder: AngleDecoder) -> Signals:
    """The frames' samples (see decode_bodies) as time-ordered columns,
    with the times of the first and last frame; InferenceError for an
    empty log, one whose first and last frames lie more than MAX_LOG_SPAN_S
    apart, or one without a decodable steering angle.

    Each column is selected from the stamp and body-index columns by its
    body's decoded value. One pass over the stamps shows whether they are
    in order; a column selected from stamps in order is in order, and the
    stamps' ends are then the first and last stamps. Only a log that is out
    of order has its ends found with min and max and each column sorted by
    _time_ordered."""
    log = FrameLog.of(frames)
    if not log:
        raise InferenceError("empty log: nothing to infer")
    stamps = log.stamps
    in_order = all(map(le, stamps, islice(stamps, 1, None)))
    if in_order:
        # stamps[0] is the first of the smallest stamps, as min gives. max
        # gives the first of the largest, stamps[-1] the last: they differ
        # only as 0.0 and -0.0, when every stamp is a zero, and then
        # t_end - t0 is a zero either way, which makes one window and no
        # message.
        t0, t_end = stamps[0], stamps[-1]
    else:
        t0, t_end = min(stamps), max(stamps)
    if t_end - t0 > MAX_LOG_SPAN_S:
        raise InferenceError(
            f"log spans {t0!r} s to {t_end!r} s, more than {MAX_LOG_SPAN_S:.0f} s: "
            "a stray timestamp or mixed captures"
        )
    index = log.index
    columns: list = []
    for values in decode_bodies(log, decoder):
        kept = [value is not None for value in values]
        selected = bytearray(map(kept.__getitem__, index))  # a byte a frame
        times = array("d", compress(stamps, selected))
        samples = array("d", map(values.__getitem__, compress(index, selected)))
        columns += (times, samples) if in_order else _time_ordered(times, samples)
    angle_times, angles, speed_times, speeds = columns
    if not angle_times:
        raise InferenceError(f"no decodable steering frames for ID 0x{decoder.id:03X}")
    return Signals(angle_times, angles, speed_times, speeds, t0, t_end)


def window_aggregates(signals: Signals, t_window: float) -> list[Window]:
    """The (mean angle in degrees, mean speed in m/s) of each window of
    ``t_window`` seconds of a decoded log, from its first frame to its
    last, in time order.

    Window k holds the samples stamped in [t0 + k*t_window, t0 + (k+1)*t_window);
    the last window also holds the final frame, which sits exactly on its
    closing edge. Each column has its own cursor. OBD responses arrive
    slower than angle broadcasts, so a category with no samples in a window
    holds the previous window's value (0.0 before the first) instead of
    zeroing out. The windows depend on nothing but the samples and the
    window length, so runs that differ only in their other parameters share
    them. More than MAX_WINDOWS windows is an InferenceError.
    """
    angle_times, angles, speed_times, speeds, t0, t_end = signals
    if (t_end - t0) / t_window >= MAX_WINDOWS:
        raise InferenceError(
            f"{t_window!r} s windows cut this {t_end - t0:.2f} s log into more than {MAX_WINDOWS:,} windows"
        )
    n_windows = int((t_end - t0) / t_window) + 1
    windows: list[Window] = []
    angle = speed = 0.0
    angle_idx = speed_idx = 0
    for k in range(n_windows):
        first_angle, first_speed = angle_idx, speed_idx
        if k == n_windows - 1:
            angle_idx, speed_idx = len(angles), len(speeds)
        else:
            edge = t0 + (k + 1) * t_window
            angle_idx = bisect_left(angle_times, edge, angle_idx)
            speed_idx = bisect_left(speed_times, edge, speed_idx)
        if angle_idx > first_angle:
            angle = sum(angles[first_angle:angle_idx]) / (angle_idx - first_angle)
        if speed_idx > first_speed:
            speed = (sum(speeds[first_speed:speed_idx]) / (speed_idx - first_speed)) / 3.6
        windows.append((angle, speed))
    return windows


@dataclass(frozen=True)
class CutLog:
    """A decoded log's windows of ``t_window`` seconds (see window_aggregates)."""

    t_window: float
    windows: Sequence[Window]


def window_controls(windows: Sequence[Window], params: InferenceParams) -> list[Control]:
    """Per window, all that dead reckoning reads of it: the steering angle
    clamped to ``steer_max``, the speed in m/s, and whether the car may
    turn (not above ``speed_max``). Runs equal in these, the window length
    and the batch size make the same track; the tuner keys runs on that."""
    steer_max, speed_max = params.steer_max, params.speed_max
    return [
        (max(-steer_max, min(steer_max, angle)), speed, speed * 3.6 <= speed_max + 1e-9)
        for angle, speed in windows
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
    frames: Sequence[CanFrame] | CutLog,
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
    track; any other matcher error ends it too. ``frames`` may be a
    CutLog of the log, which is then neither decoded nor cut again; it must
    be cut at ``params.t_window`` (a ValueError otherwise).
    """
    params = params or InferenceParams()
    if isinstance(frames, CutLog):
        if frames.t_window != params.t_window:
            raise ValueError(f"log was not cut into {params.t_window!r} s windows")
        controls = window_controls(frames.windows, params)
    else:
        controls = window_controls(window_aggregates(decode_log(frames, decoder), params.t_window), params)

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
    return InferenceResult(track=track, diagnostics=diag)
