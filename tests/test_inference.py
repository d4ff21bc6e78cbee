import hashlib
import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import replace
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from canpath.canlog import CanFrame
from canpath.geokin import (
    DEG_M,
    VehiclePose,
    VehicleSpec,
    angular_speed,
    geodesic_forward,
    geodesic_inverse,
    heading_delta,
    wrap_bearing,
)
from canpath.inference import (
    ANGLE,
    SPEED,
    MAX_LOG_SPAN_S,
    MAX_SERVICE_FAILURES,
    MAX_WINDOWS,
    InferenceError,
    InferenceParams,
    dead_reckon,
    decode_log,
    decode_signals,
    infer_path,
    window_aggregates,
    window_controls,
)
from canpath.mapmatch import (
    GraphMatcher,
    MatchResult,
    MatchServiceError,
    UnmatchedGapError,
    parse_external_response,
)
from canpath.obd import OBD_RESPONSE_ID_FIRST, OBD_RESPONSE_ID_LAST, encode_speed_request, encode_speed_response
from canpath.reveng import OFFSET_MODE, TWOS_COMPLEMENT_MODE, AngleDecoder, encode_angle_frame
from canpath.scenarios import DEFAULT_DECODER, DEFAULT_VEHICLE, straight_1km, turn_left_90
from canpath.synthgen import simulate
from canpath.trackeval import compare_tracks
from canpath.tuner import DEFAULT_GRIDS
from helpers import long_capture, traced_peak

DECODER = AngleDecoder(id=0x0C6)


def angle_frame(ts, deg):
    return encode_angle_frame(DECODER, ts, deg)


def speed_frame(ts, kmh):
    return encode_speed_response(kmh, timestamp=ts)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- decoding and window aggregation ---------------------------------------------


def test_decode_signals_skips_malformed_and_unrelated_frames():
    broken = CanFrame(0.0, "can0", DECODER.id, b"\x7f")  # one byte only
    unrelated = CanFrame(0.02, "can0", 0x123, b"\x03\x41\x0d\x21")  # not an OBD responder
    frames = [broken, angle_frame(0.01, 1.5), unrelated, speed_frame(0.03, 33)]
    samples = list(decode_signals(frames, DECODER))
    assert [(t, signal) for t, signal, _v in samples] == [(0.01, ANGLE), (0.03, SPEED)]
    assert samples[0][2] == pytest.approx(1.5)
    assert samples[1][2] == 33


def _reference_decode_signals(frames, decoder):
    """decode_signals one frame at a time with the formulas written out: a
    frame with the decoder's ID is an angle when its payload holds both
    angle bytes; any other is a speed when it is a well-formed response of
    one of the eight OBD-II responders."""
    samples = []
    for frame in frames:
        data = frame.data
        if frame.id == decoder.id:
            if len(data) <= max(decoder.byte_hi, decoder.byte_lo):
                continue
            word = data[decoder.byte_hi] * 256 + data[decoder.byte_lo]
            if decoder.mode == TWOS_COMPLEMENT_MODE:
                angle = (word - 0x10000 if word >= 0x8000 else word) * decoder.scale
            else:
                angle = (word - decoder.offset) * decoder.scale
            samples.append((frame.timestamp, ANGLE, angle))
        elif (
            OBD_RESPONSE_ID_FIRST <= frame.id <= OBD_RESPONSE_ID_LAST
            and len(data) >= 4
            and data[1] == 0x41
            and data[2] == 0x0D
        ):
            samples.append((frame.timestamp, SPEED, data[3]))
    return samples


_DECODER_IDS = (0x0C6, 0x2F5, OBD_RESPONSE_ID_FIRST)
_FRAME_IDS = _DECODER_IDS + (0x7DF, OBD_RESPONSE_ID_FIRST - 1, OBD_RESPONSE_ID_LAST + 1) + tuple(
    range(OBD_RESPONSE_ID_FIRST, OBD_RESPONSE_ID_LAST + 1)
)


@st.composite
def _decoders(draw):
    byte_hi = draw(st.integers(min_value=0, max_value=7))
    byte_lo = draw(st.integers(min_value=0, max_value=7).filter(lambda b: b != byte_hi))
    return AngleDecoder(
        id=draw(st.sampled_from(_DECODER_IDS)),
        byte_hi=byte_hi,
        byte_lo=byte_lo,
        offset=draw(st.integers(min_value=0, max_value=0xFFFF)),
        scale=draw(st.sampled_from([0.01, 0.1, 1 / 3, 0.0625, 1.0])),
        mode=draw(st.sampled_from([OFFSET_MODE, TWOS_COMPLEMENT_MODE])),
    )


_payloads = st.one_of(
    st.binary(max_size=8),
    # speed-response shaped, some with a wrong mode or PID byte
    st.builds(
        lambda mode, pid, kmh, tail: bytes([0x03, mode, pid, kmh]) + tail,
        st.sampled_from([0x41, 0x01, 0x42]),
        st.sampled_from([0x0D, 0x0C]),
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=4),
    ),
)


def _frames(decoder):
    return st.builds(
        CanFrame,
        timestamp=st.floats(min_value=0, max_value=2e9, allow_nan=False, allow_infinity=False),
        interface=st.just("can0"),
        id=st.one_of(st.just(decoder.id), st.sampled_from(_FRAME_IDS)),
        data=_payloads,
    )


@given(_decoders(), st.data())
def test_decode_signals_equals_the_per_frame_decoders(decoder, data):
    frames = data.draw(st.lists(_frames(decoder), max_size=30))
    samples = list(decode_signals(frames, decoder))
    want = _reference_decode_signals(frames, decoder)
    assert samples == want
    assert [type(v) for _t, _s, v in samples] == [type(v) for _t, _s, v in want]


def test_window_aggregate_means_and_unit_conversion():
    frames = [angle_frame(0.00, -5.67), speed_frame(0.02, 33), angle_frame(0.05, -5.67)]
    ((angle, speed),) = window_aggregates(decode_log(frames, DECODER), 0.1)
    assert angle == pytest.approx(-5.67)
    assert speed == pytest.approx(33 / 3.6)
    assert speed == pytest.approx(9.1667, abs=5e-5)


def test_window_aggregate_holds_last_speed():
    frames = [angle_frame(0.0, 1.0), speed_frame(0.02, 33), angle_frame(0.1, 2.0)]
    first, second = window_aggregates(decode_log(frames, DECODER), 0.1)
    assert second[1] == first[1]
    assert second[0] == pytest.approx(2.0)


def test_window_aggregate_empty_window_keeps_previous():
    # the log ends at 0.15 s on a frame that decodes to nothing
    last = CanFrame(0.15, "can0", 0x123, b"\x03\x41\x0d\x21")
    first, second = window_aggregates(decode_log([angle_frame(0.0, 1.0), speed_frame(0.02, 33), last], DECODER), 0.1)
    assert second[0] == first[0]
    assert second[1] == first[1]


def test_window_aggregate_skips_malformed_angle_frames():
    broken = CanFrame(0.0, "can0", DECODER.id, b"\x7f")  # one byte only
    ((angle, _speed),) = window_aggregates(decode_log([broken, angle_frame(0.01, 1.5)], DECODER), 0.1)
    assert angle == pytest.approx(1.5)


def reference_window_aggregates(samples, t0, t_end, t_window):
    """The per-window code that window_aggregates replaced: each window's
    samples sliced out and averaged by a window_aggregate call that holds
    the previous window's (angle, speed) for a category with no samples."""

    def window_aggregate(window, previous):
        angles = [value for _t, signal, value in window if signal == ANGLE]
        speeds = [value for _t, signal, value in window if signal == SPEED]
        avg_angle = sum(angles) / len(angles) if angles else previous[0]
        avg_speed = (sum(speeds) / len(speeds)) / 3.6 if speeds else previous[1]
        return (avg_angle, avg_speed)

    n_windows = int((t_end - t0) / t_window) + 1
    times = [t for t, _signal, _v in samples]
    aggregates = []
    aggregate = (0.0, 0.0)
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


def _random_log(rng, t_window):
    """A shuffled log of angle and speed frames, at least one an angle,
    with quiet stretches, runs of one signal only, and equal timestamps
    within a signal and across the two. Its first and last frames decode to
    nothing: a steering frame too short to hold an angle, and a speed
    request. Half the logs end exactly on a window edge, with an angle or a
    speed sample there beside the request."""
    t0 = rng.choice([0.0, 12.345, 1.7e9 + rng.random()])
    t = t0 + rng.choice([0.0, rng.uniform(0.0, 2.5 * t_window)])
    frames = [CanFrame(t0, "can0", DECODER.id, b"\x7f"), angle_frame(t, rng.uniform(-40.0, 40.0))]
    for _ in range(rng.randrange(120)):
        t += rng.choice([0.0, 0.0, 0.003, 0.01, rng.uniform(0.0, 2.5 * t_window)])
        if rng.random() < 0.5:
            frames.append(angle_frame(t, rng.uniform(-320.0, 320.0)))
        else:
            frames.append(speed_frame(t, rng.randrange(256)))
    if rng.random() < 0.5:
        t = t0 + (int((t - t0) / t_window) + rng.randrange(1, 3)) * t_window
        frames.append(rng.choice([angle_frame(t, rng.uniform(-40.0, 40.0)), speed_frame(t, rng.randrange(256))]))
    else:
        t += rng.uniform(0.0, t_window)
    frames.append(encode_speed_request(t))
    rng.shuffle(frames)
    return frames


def test_window_aggregates_equal_the_per_window_code():
    # the reference sorts the frames stably by time, decodes them into
    # sample tuples and cuts those with the per-window code
    rng = random.Random(14)
    seen = dict.fromkeys(
        ["empty", "angle only", "speed only", "last on closing edge", "tie in a signal", "tie across signals"], 0
    )
    for t_window in (0.01, 0.05, 0.1, 0.3, 1.0):
        for _ in range(120):
            frames = _random_log(rng, t_window)
            ordered = sorted(frames, key=itemgetter(0))
            t0, t_end = ordered[0].timestamp, ordered[-1].timestamp
            samples = list(decode_signals(ordered, DECODER))
            got = window_aggregates(decode_log(frames, DECODER), t_window)
            assert got == reference_window_aggregates(samples, t0, t_end, t_window)
            # which signals each window holds, to show that every case occurs
            edges = [t0 + k * t_window for k in range(1, len(got) + 1)]
            signals = [set() for _ in got]
            for t, signal, _v in samples:
                signals[min(bisect_right(edges, t), len(got) - 1)].add(signal)
            seen["empty"] += sum(not s for s in signals)
            seen["angle only"] += signals.count({ANGLE})
            seen["speed only"] += signals.count({SPEED})
            seen["last on closing edge"] += samples[-1][0] >= edges[-1]
            stamps = [(t, signal) for t, signal, _v in samples]
            seen["tie in a signal"] += len(set(stamps)) < len(stamps)
            seen["tie across signals"] += len({t for t, _s in stamps}) < len(set(stamps))
    assert all(seen.values()), seen


def _decode_and_cut(frames):
    signals = decode_log(frames, DECODER)
    return signals, window_aggregates(signals, 0.1)


@pytest.mark.parametrize("order,bound", [("in time order", 40), ("reversed", 100)])
def test_decoding_a_long_log_holds_the_samples_not_the_log(order, bound):
    # 100,000 frames are 91,666 samples and 8,334 windows of 0.1 s. The
    # columns take 16 bytes a sample and the windows about 11; sorting
    # reversed columns holds some 55 more for a moment. A sample tuple, and
    # the sorted frame list, took 113 bytes a sample with or without a sort.
    frames = long_capture(100_000, DECODER)
    if order == "reversed":
        frames.reverse()
    (signals, windows), peak = traced_peak(_decode_and_cut, frames)
    samples = len(signals.angles) + len(signals.speeds)
    assert (samples, len(windows)) == (91_666, 8_334)
    assert peak / samples < bound


# -- clamping and straightening ----------------------------------------------------


@pytest.mark.parametrize("angle,expected", [(40.0, 35.0), (-50.0, -35.0), (10.0, 10.0)])
def test_clamp_steer(angle, expected):
    (control,) = window_controls([(angle, 10.0)], InferenceParams(steer_max=35.0))
    assert control == (expected, 10.0, True)


def _one_window(control, pose, prev_start):
    """dead_reckon over a single 0.1 s window of a 2.6 m wheelbase car."""
    (point,), end, window_start = dead_reckon([control], pose, prev_start, 0.0, 2.6, 0.1)
    assert window_start == pose.position
    return point, end


def test_straighten_forces_travel_bearing_at_speed():
    start = VehiclePose(44.65, 10.92, 90.0)
    ahead = geodesic_forward(start.position, 90.0, 2.0)  # 2 m due east
    pose = VehiclePose(ahead[0], ahead[1], 45.0)  # bearing got twisted somehow
    # 72 km/h is above speed_max: the window may not turn, so it is straightened
    (control,) = window_controls([(0.0, 20.0)], InferenceParams(speed_max=50.0))
    assert control[2] is False
    point, end = _one_window(control, pose, start.position)
    assert end.bearing == pytest.approx(90.0, abs=1e-6)
    distance, bearing = geodesic_inverse(ahead, point)
    assert distance == pytest.approx(2.0) and bearing == pytest.approx(90.0, abs=1e-6)


def test_straighten_below_threshold_is_identity():
    # 36 km/h, and exactly speed_max, may turn; the window is never straightened
    windows = [(0.0, 10.0), (0.0, 50.0 / 3.6)]
    controls = window_controls(windows, InferenceParams(speed_max=50.0))
    assert [c[2] for c in controls] == [True, True]
    behind = geodesic_forward((44.65, 10.92), 270.0, 2.0)  # a chord due east
    _point, end = _one_window(controls[0], VehiclePose(44.65, 10.92, 45.0), behind)
    assert end.bearing == 45.0


def test_straighten_degenerate_chord_keeps_bearing():
    pose = VehiclePose(44.65, 10.92, 45.0)
    for prev_start in (pose.position, None):
        point, end = _one_window((0.0, 20.0, False), pose, prev_start)
        assert end.bearing == 45.0
        assert point == geodesic_forward(pose.position, 45.0, 2.0)


def test_dead_reckon_left_turn_decreases_bearing():
    # 10 m/s at 10 degrees left on a 2.6 m wheelbase turns 3.8855 degrees in 0.1 s
    point, end = _one_window((10.0, 10.0, True), VehiclePose(45.0, 11.0, 90.0), None)
    assert end.bearing == pytest.approx(86.1145, abs=1e-3)
    assert point == geodesic_forward((45.0, 11.0), end.bearing, 1.0)
    assert end.position == point


def test_dead_reckon_bearing_wraps_at_zero():
    _point, end = _one_window((10.0, 10.0, True), VehiclePose(45.0, 11.0, 0.0), None)
    assert end.bearing == pytest.approx(360.0 - 3.8855, abs=1e-3)
    _point, end = _one_window((-10.0, 10.0, True), VehiclePose(45.0, 11.0, 359.0), None)
    assert end.bearing == pytest.approx(2.8855, abs=1e-3)


def test_dead_reckon_standing_still_is_identity():
    pose = VehiclePose(45.0, 11.0, 123.4)
    point, end = _one_window((20.0, 0.0, True), pose, None)
    assert (point, end) == (pose.position, pose)


def reference_dead_reckon(controls, pose, prev_start, carry, wheelbase, t_window):
    """dead_reckon as it was written on VehiclePose objects: the pose is
    rebuilt, and so re-validated, after the turn, the straightening and the
    step of every window."""
    points = []
    for angle, speed, may_turn in controls:
        distance = speed * t_window + carry
        carry = 0.0
        omega = angular_speed(speed, angle, wheelbase)
        pose = replace(pose, bearing=wrap_bearing(pose.bearing - heading_delta(omega, t_window)))
        window_start = pose.position
        if not may_turn and prev_start is not None:
            chord, bearing = geodesic_inverse(prev_start, pose.position)
            if chord > 0.0:
                pose = replace(pose, bearing=bearing)
        lat, lon = geodesic_forward(pose.position, pose.bearing, distance)
        pose = VehiclePose(lat, lon, pose.bearing)
        points.append((lat, lon))
        prev_start = window_start
    return points, pose, prev_start


def _random_controls(rng, n):
    controls = []
    for _ in range(n):
        speed = rng.choice((0.0, 0.0, rng.uniform(0.0, 40.0)))
        angle = rng.choice((0.0, rng.uniform(-35.0, 35.0), rng.uniform(-1.0, 1.0)))
        controls.append((angle, speed, rng.random() < 0.5))
    return controls


def test_dead_reckon_equals_the_pose_object_loop():
    rng = random.Random(20241019)
    # 1 m east of the antimeridian on the equator, heading west: a 1 m step
    # lands a hair past it, on lon 180.0, and the next window starts at -180.0
    antimeridian = VehiclePose(0.0, -180.0 + 1.0 / DEG_M, 270.0)
    starts = [antimeridian, VehiclePose(44.65, 10.92, 359.9), VehiclePose(-33.9, 151.2, 0.05)]
    starts += [VehiclePose(rng.uniform(-70, 70), rng.uniform(-180, 180), rng.uniform(0, 360)) for _ in range(20)]
    lons = []
    for start in starts:
        pose, prev_start, want_pose, want_prev = start, None, start, None
        for batch in range(6):
            controls = _random_controls(rng, rng.randint(1, 30))
            carry = rng.choice((0.0, rng.uniform(0.0, 25.0)))
            if start is antimeridian and batch == 0:
                # 10 m/s for 0.1 s is the 1 m step; then the car stands, and drives on
                controls, carry = [(0.0, 10.0, True), (0.0, 0.0, False), (0.0, 5.0, False)] + controls, 0.0
            points, pose, prev_start = dead_reckon(controls, pose, prev_start, carry, 2.6, 0.1)
            want, want_pose, want_prev = reference_dead_reckon(controls, want_pose, want_prev, carry, 2.6, 0.1)
            assert (points, pose, prev_start) == (want, want_pose, want_prev)
            lons.extend(lon for _lat, lon in points)
            if rng.random() < 0.3:
                prev_start = want_prev = None  # as after a one-point match
    assert 180.0 in lons


# -- the pipeline -----------------------------------------------------------------


def test_empty_log_is_an_error():
    with pytest.raises(InferenceError, match="empty"):
        infer_path([], DECODER, DEFAULT_VEHICLE, VehiclePose(44.65, 10.92, 0.0))


def test_log_without_steering_frames_is_an_error():
    frames = [speed_frame(t / 10.0, 30) for t in range(20)]
    with pytest.raises(InferenceError, match="0x0C6"):
        infer_path(frames, DECODER, DEFAULT_VEHICLE, VehiclePose(44.65, 10.92, 0.0))


def test_log_spanning_more_than_a_day_is_an_error():
    # one frame stamped 0 in an epoch-stamped log would ask for ~1.7e10
    # windows; one second past the limit is as cheap to build without the check
    last = MAX_LOG_SPAN_S + 1.0
    frames = [angle_frame(0.0, 0.0), speed_frame(0.5, 30), angle_frame(last, 0.0)]
    with pytest.raises(InferenceError) as exc:
        infer_path(frames, DECODER, DEFAULT_VEHICLE, VehiclePose(44.65, 10.92, 0.0), InferenceParams(t_window=60.0))
    assert "0.0 s" in str(exc.value) and f"{last!r} s" in str(exc.value)


@pytest.mark.parametrize("t_window", [1e-7, 5e-324])
def test_more_windows_than_the_limit_is_an_error(t_window):
    # a minute at 1e-7 s is 600,000,001 windows; at 5e-324 s the count
    # overflows a float
    signals = decode_log([angle_frame(0.0, 0.0), angle_frame(60.0, 0.0)], DECODER)
    with pytest.raises(InferenceError, match="more than 2,000,000 windows"):
        window_aggregates(signals, t_window)


def test_a_day_at_the_shortest_default_window_is_within_the_limit():
    assert int(MAX_LOG_SPAN_S / min(DEFAULT_GRIDS["t_window"])) + 1 <= MAX_WINDOWS


def test_log_spanning_exactly_a_day_is_windowed():
    frames = [angle_frame(0.0, 0.0), speed_frame(0.5, 30), angle_frame(MAX_LOG_SPAN_S, 0.0)]
    signals = decode_log(frames, DECODER)
    want = (array("d", [0.0, MAX_LOG_SPAN_S]), array("d", [0.0, 0.0]), array("d", [0.5]), array("d", [30]))
    assert signals == want + (0.0, MAX_LOG_SPAN_S)
    start = VehiclePose(44.65, 10.92, 0.0)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, InferenceParams(t_window=60.0))
    assert result.diagnostics.windows == 1441


def _straight_log(n_windows=100, kmh=36, t_window=0.1):
    frames = []
    for k in range(n_windows * 10):
        frames.append(angle_frame(k * 0.01, 0.0))
    for j in range(n_windows):
        frames.append(speed_frame(j * 0.1 + 0.005, kmh))
    return sorted(frames, key=lambda f: f.timestamp)


def test_dead_reckoning_length_conservation():
    # matcher disabled, zero steering: driven length equals sum of window travel
    frames = _straight_log(n_windows=200, kmh=36)
    start = VehiclePose(44.65, 10.92, 90.0)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start)
    expected = 200 * (36 / 3.6) * 0.1
    from canpath.geokin import polyline_length

    driven = polyline_length([start.position, *result.track.points])
    assert driven == pytest.approx(expected, rel=1e-3)
    assert result.diagnostics.windows == 200
    assert len(result.track) == 200


def test_bearing_stays_wrapped():
    frames = []
    for k in range(300):
        frames.append(angle_frame(k * 0.01, 20.0))  # constant hard left
    frames.append(speed_frame(0.005, 36))
    start = VehiclePose(44.65, 10.92, 10.0)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start)
    assert len(result.track) == result.diagnostics.windows


def test_track_points_equal_matched_points():
    sc = turn_left_90()
    sim = simulate(sc)
    matcher = GraphMatcher(sc.graph)
    result = infer_path(sim.frames, sc.decoder, sc.vehicle, sim.start, InferenceParams(), matcher)
    assert len(result.track) == result.diagnostics.windows
    assert result.diagnostics.batches_matched == math.ceil(
        result.diagnostics.windows / InferenceParams().max_interpolation_points
    )
    assert result.diagnostics.total_carry >= 0.0


def test_straight_closed_loop_within_5m():
    sc = straight_1km()
    sim = simulate(sc)
    matcher = GraphMatcher(sc.graph)
    result = infer_path(sim.frames, sc.decoder, sc.vehicle, sim.start, InferenceParams(), matcher)
    # every inferred point within 5 m of the road centerline
    for lat, lon in result.track.points:
        hit = sc.graph.project_to_edge(sc.route[0], lat, lon)
        assert hit.perp_m < 5.0
    assert compare_tracks(result.track, sim.truth).accuracy >= 0.95


def test_left_turn_exit_bearing_within_3_degrees():
    sc = turn_left_90()
    sim = simulate(sc)
    matcher = GraphMatcher(sc.graph)
    result = infer_path(sim.frames, sc.decoder, sc.vehicle, sim.start, InferenceParams(), matcher)
    tail = result.track.points[-5:]
    exit_bearing = geodesic_inverse(tail[0], tail[-1])[1]
    truth_tail = sim.truth.points[-3:]
    want = geodesic_inverse(truth_tail[0], truth_tail[-1])[1]
    diff = abs(exit_bearing - want)
    assert min(diff, 360 - diff) < 3.0


def test_matcher_gap_falls_back_to_raw_points():
    class NoMatch:
        def match(self, points):
            from canpath.mapmatch import UnmatchedGapError

            raise UnmatchedGapError(0)

    frames = _straight_log(n_windows=60)
    start = VehiclePose(44.65, 10.92, 90.0)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, InferenceParams(), NoMatch())
    assert len(result.track) == 60  # raw points kept
    assert result.diagnostics.batches_matched == 0
    assert result.diagnostics.fallback_spans == [(0, 59)]  # two 30-window batches, merged
    assert "raw points kept" in result.diagnostics.report()
    assert _sha(result.gpx) == "f128f1393eef9a46fe56768f58eed7da9844dc29e3323a0273bcf4012551a2e0"


class _ScriptedMatcher:
    """Answers batch k with outcomes[k]: None returns the points unsnapped,
    a dict is parsed as the match service's reply, an exception class is
    raised. A call past the last outcome raises IndexError."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)

    def match(self, points):
        outcome = self.outcomes.pop(0)
        if outcome is None:
            return MatchResult(matched_points=tuple(points))
        if isinstance(outcome, dict):
            return parse_external_response(outcome)
        raise outcome(0) if outcome is UnmatchedGapError else outcome("service unreachable")


def test_service_outage_mid_track_keeps_raw_points():
    frames = _straight_log(n_windows=150)
    start = VehiclePose(44.65, 10.92, 90.0)
    raw = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, InferenceParams(), None)
    matcher = _ScriptedMatcher(None, MatchServiceError, UnmatchedGapError, MatchServiceError, None)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, InferenceParams(), matcher)
    assert result.diagnostics.batches_matched == 2
    # three failed batches in a row make one span
    assert result.diagnostics.fallback_spans == [(30, 119)]
    assert "raw points kept for track indices 30-119" in result.diagnostics.report()
    # the unsnapped matcher adds no carry, so the track is the raw one
    assert result.gpx == raw.gpx


def test_fallback_spans_merge_only_when_adjacent():
    frames = _straight_log(n_windows=150)
    start = VehiclePose(44.65, 10.92, 90.0)
    matcher = _ScriptedMatcher(None, UnmatchedGapError, None, MatchServiceError, MatchServiceError)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, InferenceParams(), matcher)
    assert result.diagnostics.fallback_spans == [(30, 59), (90, 149)]


def test_service_outage_stops_sending_after_consecutive_failures():
    frames = _straight_log(n_windows=300)  # ten 30-window batches
    start = VehiclePose(44.65, 10.92, 90.0)
    raw = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, InferenceParams(), None)
    # one failure between two matches resets the count; the next two in a row end sending
    matcher = _ScriptedMatcher(None, MatchServiceError, None, *[MatchServiceError] * MAX_SERVICE_FAILURES)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, InferenceParams(), matcher)
    assert matcher.outcomes == []  # every outcome used, and no batch sent after them
    assert result.diagnostics.batches_matched == 2
    assert result.diagnostics.fallback_spans == [(30, 59), (90, 299)]
    assert result.gpx == raw.gpx


@pytest.mark.parametrize(
    "outcomes", [(MatchServiceError,), (UnmatchedGapError, MatchServiceError, None)], ids=["first", "after-a-gap"]
)
def test_service_outage_before_any_match_is_an_error(outcomes):
    # an unreachable service must end the run, not leave a silent raw track
    frames = _straight_log(n_windows=90)
    with pytest.raises(MatchServiceError, match="unreachable"):
        infer_path(frames, DECODER, DEFAULT_VEHICLE, VehiclePose(44.65, 10.92, 90.0), None, _ScriptedMatcher(*outcomes))


def test_malformed_service_point_is_a_service_failure():
    frames = _straight_log(n_windows=90)
    start = VehiclePose(44.65, 10.92, 90.0)
    null_lat = {"matched_points": [{"lat": None, "lon": 10.92}]}
    # before any match the run ends in one error
    with pytest.raises(MatchServiceError, match="^malformed matched point at index 0$"):
        infer_path(frames, DECODER, DEFAULT_VEHICLE, start, None, _ScriptedMatcher(null_lat))
    # after a match the batch keeps its raw points
    out_of_range = {"matched_points": [{"lat": 44.65, "lon": 10.92}, {"lat": 95.0, "lon": 10.92}]}
    matcher = _ScriptedMatcher(None, out_of_range, None)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, None, matcher)
    assert matcher.outcomes == []
    assert result.diagnostics.batches_matched == 2
    assert result.diagnostics.fallback_spans == [(30, 59)]


def test_gpx_bytes_are_pinned():
    # the digests pin the GPX bytes, snapped and raw, against changes to any stage
    sc = turn_left_90()
    sim = simulate(sc)
    snapped = infer_path(sim.frames, sc.decoder, sc.vehicle, sim.start, InferenceParams(), GraphMatcher(sc.graph))
    raw = infer_path(sim.frames, sc.decoder, sc.vehicle, sim.start, InferenceParams(), None)
    assert _sha(snapped.gpx) == "3e136f418f99f428c62ab3010761a16490231e8897a259d94b68ba26a8edbb06"
    assert _sha(raw.gpx) == "36ba61e81da82bf77a0170b2751707603492f5350f4572d6b300e8cc323a6c2f"


def test_deterministic_gpx_output():
    sc = turn_left_90()
    sim = simulate(sc)
    runs = []
    for _ in range(2):
        matcher = GraphMatcher(sc.graph)
        result = infer_path(sim.frames, sc.decoder, sc.vehicle, sim.start, InferenceParams(), matcher)
        runs.append(result.gpx)
    assert runs[0] == runs[1]


def test_unsorted_log_is_normalized():
    # a gentle left turn, so that the GPX bytes depend on each angle's window
    frames = [
        angle_frame(f.timestamp, 5.0 + f.timestamp) if f.id == DECODER.id else f for f in _straight_log(n_windows=20)
    ]
    assert len({f.timestamp for f in frames}) == len(frames)
    start = VehiclePose(44.65, 10.92, 90.0)
    result = infer_path(list(reversed(frames)), DECODER, DEFAULT_VEHICLE, start)
    assert result.diagnostics.windows == 20
    assert result.gpx == infer_path(frames, DECODER, DEFAULT_VEHICLE, start).gpx


def test_params_validation():
    with pytest.raises(ValueError):
        InferenceParams(t_window=0.0)
    with pytest.raises(ValueError):
        InferenceParams(steer_max=120.0)


@pytest.mark.parametrize("batch", [2.5, 30.0, True, "30"])
def test_params_batch_size_must_be_an_integer(batch):
    with pytest.raises(ValueError, match=f"max_interpolation_points must be an integer, got {batch!r}"):
        InferenceParams(max_interpolation_points=batch)
