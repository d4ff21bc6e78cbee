import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from canpath.canlog import CanFrame
from canpath.geokin import VehiclePose, VehicleSpec, geodesic_forward, geodesic_inverse
from canpath.inference import (
    ANGLE,
    SPEED,
    MAX_LOG_SPAN_S,
    MAX_SERVICE_FAILURES,
    InferenceError,
    InferenceParams,
    WindowAggregate,
    decode_log,
    decode_signals,
    infer_path,
    straighten,
    window_aggregate,
    window_controls,
)
from canpath.mapmatch import ExternalMatcher, GraphMatcher, MatchResult, MatchServiceError, UnmatchedGapError
from canpath.obd import OBD_RESPONSE_ID_FIRST, OBD_RESPONSE_ID_LAST, decode_speed_response, encode_speed_response
from canpath.reveng import (
    OFFSET_MODE,
    TWOS_COMPLEMENT_MODE,
    AngleDecodeError,
    AngleDecoder,
    decode_angle,
    encode_angle_frame,
)
from canpath.scenarios import DEFAULT_DECODER, DEFAULT_VEHICLE, straight_1km, turn_left_90
from canpath.synthgen import simulate
from canpath.trackeval import compare_tracks

DECODER = AngleDecoder(id=0x0C6)
PREV = WindowAggregate(avg_angle_deg=1.0, avg_speed_ms=9.1666, angle_samples=1, speed_samples=1)


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
    samples = decode_signals(frames, DECODER)
    assert [(t, signal) for t, signal, _v in samples] == [(0.01, ANGLE), (0.03, SPEED)]
    assert samples[0][2] == pytest.approx(1.5)
    assert samples[1][2] == 33


def _reference_decode_signals(frames, decoder):
    """decode_signals through the public per-frame decoders and their objects."""
    samples = []
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
    samples = decode_signals(frames, decoder)
    want = _reference_decode_signals(frames, decoder)
    assert samples == want
    assert [type(v) for _t, _s, v in samples] == [type(v) for _t, _s, v in want]


def test_window_aggregate_means_and_unit_conversion():
    frames = [angle_frame(0.00, -5.67), angle_frame(0.05, -5.67), speed_frame(0.02, 33)]
    agg = window_aggregate(decode_signals(frames, DECODER), WindowAggregate(0.0, 0.0))
    assert agg.avg_angle_deg == pytest.approx(-5.67)
    assert agg.avg_speed_ms == pytest.approx(33 / 3.6)
    assert agg.avg_speed_ms == pytest.approx(9.1667, abs=5e-5)
    assert agg.angle_samples == 2 and agg.speed_samples == 1


def test_window_aggregate_holds_last_speed():
    agg = window_aggregate(decode_signals([angle_frame(0.0, 2.0)], DECODER), PREV)
    assert agg.avg_speed_ms == PREV.avg_speed_ms
    assert agg.avg_angle_deg == pytest.approx(2.0)
    assert agg.speed_samples == 0


def test_window_aggregate_empty_window_keeps_previous():
    agg = window_aggregate([], PREV)
    assert agg.avg_angle_deg == PREV.avg_angle_deg
    assert agg.avg_speed_ms == PREV.avg_speed_ms


def test_window_aggregate_skips_malformed_angle_frames():
    broken = CanFrame(0.0, "can0", DECODER.id, b"\x7f")  # one byte only
    samples = decode_signals([broken, angle_frame(0.01, 1.5)], DECODER)
    agg = window_aggregate(samples, WindowAggregate(0.0, 0.0))
    assert agg.avg_angle_deg == pytest.approx(1.5)
    assert agg.angle_samples == 1


# -- clamping and straightening ----------------------------------------------------


@pytest.mark.parametrize("angle,expected", [(40.0, 35.0), (-50.0, -35.0), (10.0, 10.0)])
def test_clamp_steer(angle, expected):
    (control,) = window_controls([WindowAggregate(angle, 10.0)], InferenceParams(steer_max=35.0))
    assert control == (expected, 10.0, True)


def test_straighten_forces_travel_bearing_at_speed():
    start = VehiclePose(44.65, 10.92, 90.0)
    ahead = geodesic_forward(start, 2.0)  # 2 m due east
    pose = VehiclePose(ahead[0], ahead[1], 45.0)  # bearing got twisted somehow
    # 72 km/h is above speed_max: the window may not turn, so it is straightened
    (control,) = window_controls([WindowAggregate(0.0, 20.0)], InferenceParams(speed_max=50.0))
    assert control[2] is False
    assert straighten(pose, start.position).bearing == pytest.approx(90.0, abs=1e-6)


def test_straighten_below_threshold_is_identity():
    # 36 km/h, and exactly speed_max, may turn; the window is never straightened
    windows = [WindowAggregate(0.0, 10.0), WindowAggregate(0.0, 50.0 / 3.6)]
    assert [c[2] for c in window_controls(windows, InferenceParams(speed_max=50.0))] == [True, True]


def test_straighten_degenerate_chord_keeps_bearing():
    pose = VehiclePose(44.65, 10.92, 45.0)
    assert straighten(pose, pose.position) == pose
    assert straighten(pose, None) == pose


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


def test_log_spanning_exactly_a_day_is_windowed():
    frames = [angle_frame(0.0, 0.0), speed_frame(0.5, 30), angle_frame(MAX_LOG_SPAN_S, 0.0)]
    samples, t0, t_end = decode_log(frames, DECODER)
    assert (t0, t_end, len(samples)) == (0.0, MAX_LOG_SPAN_S, 3)
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
    an exception class is raised."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)

    def match(self, points):
        outcome = self.outcomes.pop(0)
        if outcome is None:
            return MatchResult(matched_points=tuple(points))
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


class _ScriptedSession:
    """A match service transport: request k is answered with the points it
    sent when up[k] is true, and times out when it is false or past the end."""

    def __init__(self, *up):
        self.up = list(up)
        self.posts = 0

    def post(self, url, json, timeout):
        self.posts += 1
        if not (self.up and self.up.pop(0)):
            raise TimeoutError("timed out")
        return _StubReply({"matched_points": json["shape"]})


class _StubReply:
    status_code = 200

    def __init__(self, document):
        self.document = document

    def json(self):
        return self.document


def test_service_outage_stops_sending_after_consecutive_failures():
    frames = _straight_log(n_windows=300)  # ten 30-window batches
    start = VehiclePose(44.65, 10.92, 90.0)
    raw = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, InferenceParams(), None)
    # one failure between two matches resets the count; the next two in a row end sending
    session = _ScriptedSession(True, False, True, *[False] * MAX_SERVICE_FAILURES)
    matcher = ExternalMatcher("http://matcher.local/trace_attributes", session=session)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start, InferenceParams(), matcher)
    assert session.posts == 3 + MAX_SERVICE_FAILURES
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
    frames = list(reversed(_straight_log(n_windows=20)))
    start = VehiclePose(44.65, 10.92, 90.0)
    result = infer_path(frames, DECODER, DEFAULT_VEHICLE, start)
    assert result.diagnostics.windows == 20


def test_params_validation():
    with pytest.raises(ValueError):
        InferenceParams(t_window=0.0)
    with pytest.raises(ValueError):
        InferenceParams(steer_max=120.0)


@pytest.mark.parametrize("batch", [2.5, 30.0, True, "30"])
def test_params_batch_size_must_be_an_integer(batch):
    with pytest.raises(ValueError, match=f"max_interpolation_points must be an integer, got {batch!r}"):
        InferenceParams(max_interpolation_points=batch)
