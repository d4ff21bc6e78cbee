"""Acceptance suite: each test checks one release criterion at its stated
tolerance and prints one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random

import pytest

from canpath.canlog import CanFrame, format_line
from canpath.geokin import VehiclePose, geodesic_forward, polyline_length
from canpath.inference import InferenceParams, infer_path
from canpath.mapmatch import GraphMatcher, MatcherConfig, viterbi_match
from canpath.obd import encode_speed_request, response_speed_kmh
from canpath.reveng import AngleDecoder, payload_angle
from canpath.scenarios import default_suite, fork_turns, merge_graphs, tuning_suite
from canpath.synthgen import simulate
from canpath.trackeval import Track, compare_tracks, nw_align
from canpath.tuner import DEFAULT_GRIDS, TuneTrack, find_row, grid_search

from helpers import (
    DEG_M,
    arc_graph,
    brute_force_best_match_score,
    enumerate_alignment_scores,
    grid3,
    match_score_of_result,
    offset_point,
    straight_graph,
    triangle_graph,
    y_junction,
)


def _report(number, name, ok, detail=""):
    print(f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _run_closed_loop():
    """simulate -> infer -> compare over the whole scenario suite."""
    outcomes = []
    for scenario in default_suite():
        sim = simulate(scenario)
        result = infer_path(
            sim.frames,
            scenario.decoder,
            scenario.vehicle,
            sim.start,
            InferenceParams(),
            GraphMatcher(scenario.graph),
        )
        accuracy = compare_tracks(result.track, sim.truth).accuracy
        outcomes.append((scenario.name, accuracy, result.gpx))
    return outcomes


@pytest.fixture(scope="module")
def closed_loop():
    return _run_closed_loop()


def test_criterion_1_angle_decode_exact():
    decoder = AngleDecoder(id=0x0C6, byte_hi=0, byte_lo=1, offset=0x7FFF, scale=0.01)
    frame = CanFrame(0.0, "can0", 0x0C6, bytes([0x7D, 0xC8]))
    angle = payload_angle(decoder, frame.data)
    _report(1, "angle decode exactness", angle == -5.67, f"0x7DC8 -> {angle}")


def test_criterion_2_obd_decode_exact():
    frame = CanFrame(0.0, "can0", 0x7E8, bytes([0x03, 0x41, 0x0D, 0x21, 0xAA, 0xAA, 0xAA, 0xAA]))
    speed = response_speed_kmh(frame.id, frame.data)
    line = format_line(encode_speed_request())
    ok = speed is not None and speed == 33 and line.endswith("7DF#02010DAAAAAAAAAA")
    _report(2, "OBD decode exactness", ok, f"0x21 -> {speed} km/h; {line.split()[-1]}")


def test_criterion_3_kinematics():
    # straight-line conservation: 1000 windows of 10 m/s x 0.1 s
    pose = VehiclePose(44.65, 10.92, 63.0)
    points = [pose.position]
    for _ in range(1000):
        lat, lon = geodesic_forward(pose.position, pose.bearing, 10.0 * 0.1)
        pose = VehiclePose(lat, lon, pose.bearing)
        points.append((lat, lon))
    length = polyline_length(points)
    length_ok = abs(length - 1000.0) <= 1.0  # 0.1 % of 1 km

    # heading update matches an independent scalar recomputation to 1e-9
    from canpath.geokin import angular_speed, heading_delta

    rng = random.Random(1234)
    worst = 0.0
    for _ in range(100):
        v = rng.uniform(0.0, 40.0)
        delta = rng.uniform(-35.0, 35.0)
        wheelbase = rng.uniform(2.0, 3.5)
        omega = v * math.tan(math.radians(delta)) / wheelbase
        expected = math.degrees(math.atan2(math.sin(omega * 0.1), math.cos(omega * 0.1)))
        got = angular_speed(v, delta, wheelbase)
        worst = max(worst, abs(got - omega), abs(heading_delta(got, 0.1) - expected))
    _report(
        3,
        "kinematics",
        length_ok and worst <= 1e-9,
        f"length={length:.3f} m, worst formula deviation={worst:.2e}",
    )


def test_criterion_4_viterbi_optimality():
    fixtures = {
        "straight": straight_graph,
        "y_junction": y_junction,
        "grid3": grid3,
        "triangle": triangle_graph,
        "arc": arc_graph,
    }
    config = MatcherConfig()
    noise = [3.0, -4.0, 2.0, -2.5, 3.5]
    checked = 0
    for name, fixture in fixtures.items():
        graph = fixture()
        first_edge = min(graph.edges)
        length = graph.edges[first_edge].length_m
        points = [
            offset_point(graph, first_edge, length * f, east_m=n)
            for f, n in zip((0.1, 0.3, 0.5, 0.7, 0.9), noise)
        ]
        result = viterbi_match(graph, points, config)
        got = match_score_of_result(graph, points, result, config)
        best = brute_force_best_match_score(graph, points, config)
        assert abs(got - best) <= 1e-9, f"{name}: viterbi {got} != oracle {best}"
        checked += 1
    _report(4, "viterbi optimality", checked == 5, f"{checked} graphs equal the enumeration oracle")


def test_criterion_5_needleman_wunsch():
    base_lat, base_lon = 44.65, 10.92
    rng = random.Random(2024)

    def random_track(n):
        return Track(
            points=tuple(
                (base_lat + rng.uniform(-30, 30) / DEG_M, base_lon + rng.uniform(-30, 30) / DEG_M)
                for _ in range(n)
            )
        )

    cases = 0
    while cases < 200:
        a = random_track(rng.randint(0, 6))
        b = random_track(rng.randint(0, 6))
        if len(a) == 0 and len(b) == 0:
            continue
        got = nw_align(a, b).score
        want = max(enumerate_alignment_scores(a, b, 10.0))
        assert got == want, f"case {cases}: dp {got} != enumeration {want}"
        cases += 1
    identity = random_track(5)
    identity_ok = nw_align(identity, identity).accuracy == 1.0
    _report(5, "needleman-wunsch", cases == 200 and identity_ok, f"{cases} enumerated cases")


def test_criterion_6_closed_loop(closed_loop):
    accuracies = [acc for _name, acc, _gpx in closed_loop]
    mean = sum(accuracies) / len(accuracies)
    ok = len(accuracies) >= 10 and mean >= 0.95 and min(accuracies) >= 0.85
    detail = f"{len(accuracies)} scenarios, mean={mean:.4f}, min={min(accuracies):.4f}"
    _report(6, "closed loop", ok, detail)


def test_criterion_7_tuning_grid():
    suite = tuning_suite()
    graph = merge_graphs([sc.graph for sc in suite])
    tracks = []
    for scenario in suite:
        sim = simulate(scenario)
        tracks.append(
            TuneTrack(scenario.name, tuple(sim.frames), sim.truth, sim.start, scenario.decoder, scenario.vehicle)
        )
    rows = grid_search(tracks, graph, grids=DEFAULT_GRIDS)
    row_count_ok = len(rows) == 500
    defaults = dict(speed_max=50.0, steer_max=35.0, max_interpolation_points=30)
    slow = find_row(rows, t_window=1.0, **defaults)
    fast = find_row(rows, t_window=0.1, **defaults)
    trend_ok = slow is not None and fast is not None and slow.mean_accuracy < fast.mean_accuracy
    # the default combination scores at least as well as the 50th-best row
    # (top decile by accuracy; ordinal rank is meaningless among ties)
    decile_ok = fast.mean_accuracy >= rows[49].mean_accuracy
    detail = (
        f"rows={len(rows)}, accuracy(t_window=1.0)={slow.mean_accuracy:.4f} < "
        f"accuracy(t_window=0.1)={fast.mean_accuracy:.4f}, "
        f"defaults at/above decile boundary {rows[49].mean_accuracy:.4f}"
    )
    _report(7, "tuning grid", row_count_ok and trend_ok and decile_ok, detail)


def test_criterion_8_bearing_error_degradation():
    accuracies = []
    for error in (0.0, 10.0, 30.0):
        scenario = fork_turns(start_bearing_error=error)
        sim = simulate(scenario)
        result = infer_path(
            sim.frames,
            scenario.decoder,
            scenario.vehicle,
            sim.start,
            InferenceParams(),
            GraphMatcher(scenario.graph),
        )
        accuracies.append(compare_tracks(result.track, sim.truth).accuracy)
    monotone = all(a >= b for a, b in zip(accuracies, accuracies[1:]))
    degraded = accuracies[-1] < accuracies[0]
    detail = "accuracy at 0/10/30 deg error: " + ", ".join(f"{a:.4f}" for a in accuracies)
    _report(8, "bearing-error degradation", monotone and degraded, detail)


def test_criterion_9_determinism(closed_loop):
    rerun = _run_closed_loop()
    identical = all(a[2] == b[2] for a, b in zip(closed_loop, rerun))
    _report(9, "determinism", identical and len(rerun) == len(closed_loop), "byte-identical GPX on rerun")
