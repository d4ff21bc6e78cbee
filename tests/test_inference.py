import math

import pytest

from canpath.canlog import CanFrame
from canpath.geokin import VehiclePose, VehicleSpec, geodesic_forward, geodesic_inverse
from canpath.inference import (
    ANGLE,
    SPEED,
    InferenceError,
    InferenceParams,
    WindowAggregate,
    clamp_steer,
    decode_signals,
    infer_path,
    straighten_if_fast,
    window_aggregate,
)
from canpath.mapmatch import GraphMatcher
from canpath.obd import encode_speed_response
from canpath.reveng import AngleDecoder, encode_angle_frame
from canpath.scenarios import DEFAULT_DECODER, DEFAULT_VEHICLE, straight_1km, turn_left_90
from canpath.synthgen import simulate
from canpath.trackeval import compare_tracks

DECODER = AngleDecoder(id=0x0C6)
PREV = WindowAggregate(avg_angle_deg=1.0, avg_speed_ms=9.1666, angle_samples=1, speed_samples=1)


def angle_frame(ts, deg):
    return encode_angle_frame(DECODER, ts, deg)


def speed_frame(ts, kmh):
    return encode_speed_response(kmh, timestamp=ts)


# -- decoding and window aggregation ---------------------------------------------


def test_decode_signals_skips_malformed_and_unrelated_frames():
    broken = CanFrame(0.0, "can0", DECODER.id, b"\x7f")  # one byte only
    unrelated = CanFrame(0.02, "can0", 0x123, b"\x03\x41\x0d\x21")  # not an OBD responder
    frames = [broken, angle_frame(0.01, 1.5), unrelated, speed_frame(0.03, 33)]
    samples = decode_signals(frames, DECODER)
    assert [(t, signal) for t, signal, _v in samples] == [(0.01, ANGLE), (0.03, SPEED)]
    assert samples[0][2] == pytest.approx(1.5)
    assert samples[1][2] == 33


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
    assert clamp_steer(angle, 35.0) == expected


def test_straighten_forces_travel_bearing_at_speed():
    start = VehiclePose(44.65, 10.92, 90.0)
    ahead = geodesic_forward(start, 2.0)  # 2 m due east
    pose = VehiclePose(ahead[0], ahead[1], 45.0)  # bearing got twisted somehow
    fixed = straighten_if_fast(pose, start.position, speed_ms=20.0, speed_max_kmh=50.0)
    assert fixed.bearing == pytest.approx(90.0, abs=1e-6)


def test_straighten_below_threshold_is_identity():
    pose = VehiclePose(44.65, 10.92, 45.0)
    assert straighten_if_fast(pose, (44.649, 10.919), 10.0, 50.0) == pose  # 36 km/h


def test_straighten_degenerate_chord_keeps_bearing():
    pose = VehiclePose(44.65, 10.92, 45.0)
    assert straighten_if_fast(pose, pose.position, 20.0, 50.0) == pose
    assert straighten_if_fast(pose, None, 20.0, 50.0) == pose


# -- the pipeline -----------------------------------------------------------------


def test_empty_log_is_an_error():
    with pytest.raises(InferenceError, match="empty"):
        infer_path([], DECODER, DEFAULT_VEHICLE, VehiclePose(44.65, 10.92, 0.0))


def test_log_without_steering_frames_is_an_error():
    frames = [speed_frame(t / 10.0, 30) for t in range(20)]
    with pytest.raises(InferenceError, match="0x0C6"):
        infer_path(frames, DECODER, DEFAULT_VEHICLE, VehiclePose(44.65, 10.92, 0.0))


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
    assert len(result.diagnostics.fallback_spans) == 2  # 30-window batches
    assert "raw points kept" in result.diagnostics.report()


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
