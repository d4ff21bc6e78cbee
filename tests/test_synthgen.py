import json
import math

import pytest

from canpath import synthgen
from canpath.canlog import CanFrame
from canpath.geokin import geodesic_inverse
from canpath.inference import InferenceParams, infer_path
from canpath.mapmatch import GraphMatcher
from canpath.obd import response_speed_kmh
from canpath.reveng import AngleDecoder, payload_angle
from canpath.roadgraph import RoadGraph
from canpath.scenarios import (
    DEFAULT_DECODER,
    DEFAULT_VEHICLE,
    PathBuilder,
    assemble_graph,
    straight_1km,
    turn_left_90,
)
from canpath.jsondocs import load_scenario, manifest_for
from canpath.synthgen import ScenarioError, SimScenario, route_polyline, simulate
from canpath.trackeval import compare_tracks

from helpers import no_sim_frames


def _arc_scenario(radius=30.0, kmh=25.0):
    pb = PathBuilder(heading=0.0)
    path = pb.straight(40).arc(radius, 180).straight(40).take()
    graph = assemble_graph({1: path})
    return SimScenario(
        name="arc",
        graph=graph,
        route=[1],
        speed_profile=[(0.0, kmh)],
        decoder=DEFAULT_DECODER,
        vehicle=DEFAULT_VEHICLE,
    )


def test_straight_route_emits_zero_angles_and_profile_speed():
    sim = simulate(straight_1km())
    angle_words = set()
    speed_bytes = set()
    for frame in sim.frames:
        if frame.id == DEFAULT_DECODER.id:
            angle_words.add((frame.data[0], frame.data[1]))
        else:
            speed_bytes.add(response_speed_kmh(frame.id, frame.data))
    assert angle_words == {(0x7F, 0xFF)}  # offset word = wheels straight
    assert speed_bytes == {36}


def test_arc_steering_is_steady_at_atan_L_over_R():
    radius = 30.0
    sc = _arc_scenario(radius=radius)
    sim = simulate(sc)
    expected = math.degrees(math.atan(sc.vehicle.wheelbase / radius))
    arc_len = math.pi * radius
    # inspect decoded angles while the car is well inside the arc
    v = 25.0 / 3.6
    t_enter = (40.0 + 10.0) / v
    t_leave = (40.0 + arc_len - 10.0) / v
    inside = []
    for frame in sim.frames:
        if frame.id == DEFAULT_DECODER.id and t_enter <= frame.timestamp <= t_leave:
            inside.append(payload_angle(DEFAULT_DECODER, frame.data))
    assert inside, "no samples inside the arc"
    for angle in inside:
        assert abs(angle - expected) <= DEFAULT_DECODER.scale + 1e-9


def test_emitted_angles_match_analytic_steering_within_quantization(monkeypatch):
    analytic = {}  # frame time -> the angle simulate asked to encode
    encode_angle_frame = synthgen.encode_angle_frame

    def recording(decoder, t, delta):
        analytic[t] = delta
        return encode_angle_frame(decoder, t, delta)

    monkeypatch.setattr(synthgen, "encode_angle_frame", recording)
    sim = simulate(turn_left_90())
    assert any(abs(delta) > 10.0 for delta in analytic.values())  # the turn is in the record
    for frame in sim.frames:
        if frame.id == DEFAULT_DECODER.id:
            decoded = payload_angle(DEFAULT_DECODER, frame.data)
            assert abs(decoded - analytic[frame.timestamp]) <= DEFAULT_DECODER.scale


def test_speed_bytes_follow_profile_rounding():
    pb = PathBuilder(heading=90.0)
    graph = assemble_graph({1: pb.straight(400).take()})
    sc = SimScenario(
        name="profiled",
        graph=graph,
        route=[1],
        speed_profile=[(0.0, 36.0), (150.0, 53.5), (300.0, 20.0)],
        decoder=DEFAULT_DECODER,
        vehicle=DEFAULT_VEHICLE,
    )
    sim = simulate(sc)
    seen = {response_speed_kmh(f.id, f.data) for f in sim.frames if f.id != DEFAULT_DECODER.id}
    assert seen == {36, 54, 20}  # 53.5 km/h rounds to the 54 byte


def test_log_timestamps_strictly_increase():
    sim = simulate(turn_left_90())
    times = [f.timestamp for f in sim.frames]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_timestamps_strictly_increase_even_when_rates_collide(monkeypatch):
    # at 200 Hz steering, OBD samples (obd_period/20 phase) land exactly on
    # steering ticks; the log must still be strictly ordered
    sc = turn_left_90()
    sc.swa_rate = 200.0
    nudged = []

    def checked_frame(*args):
        nudged.append(CanFrame(*args))
        return nudged[-1]

    # the nudge builds its frame through the checking constructor
    monkeypatch.setattr(synthgen, "CanFrame", checked_frame)
    sim = simulate(sc)
    times = [f.timestamp for f in sim.frames]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert nudged and all(f in sim.frames for f in nudged)
    assert all(type(f) is CanFrame for f in sim.frames)


def test_truth_sampled_at_one_hertz():
    sim = simulate(straight_1km())
    assert sim.truth.times is not None
    deltas = [b - a for a, b in zip(sim.truth.times, sim.truth.times[1:])]
    assert all(d == pytest.approx(1.0) for d in deltas[:-1])
    assert deltas[-1] <= 1.0 + 1e-9
    # truth spans the whole route
    assert geodesic_inverse(sim.truth.points[0], sim.truth.points[-1])[0] == pytest.approx(
        1000.0, abs=1.0
    )


def test_start_pose_is_route_origin_with_bearing_error():
    plain = simulate(straight_1km())
    # great-circle initial bearing bows poleward by a few 1e-5 degrees
    assert plain.start.bearing == pytest.approx(90.0, abs=1e-3)  # due east
    sc = straight_1km()
    sc.start_bearing_error = 30.0
    skewed = simulate(sc)
    assert skewed.start.bearing == pytest.approx(120.0, abs=1e-3)
    assert skewed.start.position == plain.start.position


def test_non_contiguous_route_is_an_error():
    pb = PathBuilder(heading=0.0)
    a = pb.straight(100).take()
    disconnected = PathBuilder(pos=(500.0, 500.0), heading=0.0).straight(100).take()
    graph = assemble_graph({1: a, 2: disconnected})
    sc = SimScenario(
        name="broken",
        graph=graph,
        route=[1, 2],
        speed_profile=[(0.0, 30.0)],
        decoder=DEFAULT_DECODER,
        vehicle=DEFAULT_VEHICLE,
    )
    with pytest.raises(ScenarioError, match="connect"):
        simulate(sc)


def test_route_polyline_reverses_bidirectional_edges():
    pb = PathBuilder(heading=0.0)
    a = pb.straight(100).take()
    b = pb.straight(100).take()
    graph = assemble_graph({1: a, 2: b})
    # traverse edge 2 backwards then edge 1 backwards
    points = route_polyline(graph, [2, 1])
    assert points[0] == pytest.approx(graph.edges[2].geometry[-1])
    assert points[-1] == pytest.approx(graph.edges[1].geometry[0])


@pytest.mark.parametrize(
    "edges, backwards",
    [
        ([(1, 2, 1, False, []), (2, 2, 3, True, [])], 1),  # the first edge runs 2 -> 1
        ([(1, 1, 2, True, []), (2, 3, 2, False, [])], 2),  # a later edge runs 3 -> 2
    ],
)
def test_route_polyline_refuses_a_one_way_edge_driven_backwards(edges, backwards):
    graph = RoadGraph({1: (44.65, 10.92), 2: (44.651, 10.92), 3: (44.652, 10.92)}, edges)
    with pytest.raises(ScenarioError, match=f"^one-way edge {backwards} traversed backwards$"):
        route_polyline(graph, [1, 2])
    two_way = RoadGraph(graph.nodes, [(e_id, a, b, True, mid) for e_id, a, b, _, mid in edges])
    assert route_polyline(two_way, [1, 2]) == [(44.65, 10.92), (44.651, 10.92), (44.652, 10.92)]


def test_closed_loop_roundtrip_accuracy():
    sc = turn_left_90()
    sim = simulate(sc)
    result = infer_path(
        sim.frames, sc.decoder, sc.vehicle, sim.start, InferenceParams(), GraphMatcher(sc.graph)
    )
    assert compare_tracks(result.track, sim.truth).accuracy >= 0.95


def test_scenario_validation():
    graph = assemble_graph({1: PathBuilder(heading=0.0).straight(50).take()})
    with pytest.raises(ScenarioError, match="route"):
        SimScenario("x", graph, [], [(0.0, 30.0)], DEFAULT_DECODER, DEFAULT_VEHICLE)
    with pytest.raises(ScenarioError, match="profile"):
        SimScenario("x", graph, [1], [(10.0, 30.0)], DEFAULT_DECODER, DEFAULT_VEHICLE)
    with pytest.raises(ScenarioError, match="outside"):
        SimScenario("x", graph, [1], [(0.0, 300.0)], DEFAULT_DECODER, DEFAULT_VEHICLE)


@pytest.mark.parametrize(
    "rates", [{"swa_rate": 1e9}, {"obd_rate": 1e9}, {"swa_rate": 1e9, "obd_rate": 1e9}], ids=["swa", "obd", "both"]
)
def test_simulation_beyond_the_step_bound_is_refused_at_once(monkeypatch, rates):
    sc = turn_left_90()
    no_sim_frames(monkeypatch)
    with pytest.raises(ScenarioError, match="^scenario needs up to .* steering and OBD steps, more than 2,000,000;"):
        simulate(SimScenario(sc.name, sc.graph, sc.route, sc.speed_profile, sc.decoder, sc.vehicle, **rates))


def test_step_bound_takes_the_slowest_speed_the_route_reaches(monkeypatch):
    sc = turn_left_90()  # 318.8 m
    crawl = [(0.0, 20.0), (100.0, 0.001)]  # 0.001 km/h from 100 m: 7.9e7 steps at 100 Hz
    no_sim_frames(monkeypatch)
    with pytest.raises(ScenarioError, match="steering and OBD steps"):
        simulate(SimScenario(sc.name, sc.graph, sc.route, crawl, sc.decoder, sc.vehicle))
    monkeypatch.undo()
    # an entry past the route's end is never reached, so it does not count
    beyond = [(0.0, 20.0), (1e6, 0.001)]
    sim = simulate(SimScenario(sc.name, sc.graph, sc.route, beyond, sc.decoder, sc.vehicle))
    assert sim.frames == simulate(sc).frames


def test_scenario_file_roundtrip(tmp_path):
    sc = turn_left_90()
    graph_file = tmp_path / "roads.txt"
    sc.graph.save(str(graph_file))
    doc = {
        "name": "from_file",
        "graph": "roads.txt",
        "route": sc.route,
        "speed_profile": [[0.0, 20.0]],
        "model": "renault captur",
        "wheelbase": 2.6,
        "start_bearing_error": 5.0,
    }
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(doc))
    loaded = load_scenario(str(scenario_file))
    assert loaded.name == "from_file"
    assert loaded.route == sc.route
    assert loaded.decoder.id == 0x0C6
    assert loaded.start_bearing_error == 5.0
    sim = simulate(loaded)
    manifest = manifest_for(loaded, sim, "a.log", "b.gpx")
    assert manifest["swa_id"] == "0x0C6"
    # the start pose in the form a tune manifest track takes
    assert manifest["start"] == [sim.start.lat, sim.start.lon, sim.start.bearing]


def _write_scenario(tmp_path, **vehicle):
    sc = turn_left_90()
    sc.graph.save(str(tmp_path / "roads.txt"))
    doc = {"name": "x", "graph": "roads.txt", "route": sc.route, "speed_profile": [[0.0, 20.0]], **vehicle}
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(doc))
    return str(scenario_file)


def test_scenario_file_with_inline_decoder(tmp_path):
    # the vehicle is named by model and decoder file only; an inline decoder,
    # whatever its JSON type, is an unknown key
    for decoder in ({"id": "2F5", "offset": "7FFF", "scale": 0.01}, ["2F5"], "0C6"):
        with pytest.raises(ScenarioError, match="^scenario file: unknown key 'decoder'$"):
            load_scenario(_write_scenario(tmp_path, decoder=decoder, wheelbase=2.604))


def test_scenario_file_with_decoder_file(tmp_path):
    sheet = "canpath-decoders v1\nmy van, 2F5, 0, 1, 7FFF, 0.01, offset, 3.10\n"
    (tmp_path / "sheets").mkdir()
    (tmp_path / "sheets" / "van.txt").write_text(sheet)
    # relative to the scenario file, like graph; the sheet's only row
    loaded = load_scenario(_write_scenario(tmp_path, decoder_file="sheets/van.txt"))
    assert loaded.decoder == AngleDecoder(id=0x2F5)
    assert loaded.vehicle.wheelbase == 3.10
    # a model picks its row, and an explicit wheelbase overrides the row's
    loaded = load_scenario(_write_scenario(tmp_path, decoder_file="sheets/van.txt", model="My  Van", wheelbase=2.604))
    assert loaded.decoder == AngleDecoder(id=0x2F5)
    assert loaded.vehicle.wheelbase == 2.604


@pytest.mark.parametrize(
    "vehicle,message",
    [
        ({"model": "DeLorean DMC-12"}, "unknown model 'DeLorean DMC-12'"),
        ({"model": 5}, "'model' must be a string, got 5"),
        ({"decoder_file": "van.txt", "model": "renault captur"}, "model 'renault captur' not in decoder file"),
        ({"decoder_file": "van.txt"}, "no wheelbase on record for 'my van'"),
        ({}, "one of 'model' or 'decoder_file' is required"),
    ],
    ids=["unknown-model", "model-number", "model-not-in-sheet", "no-wheelbase", "no-vehicle"],
)
def test_scenario_file_vehicle_is_resolved_as_a_tune_track_is(tmp_path, vehicle, message):
    (tmp_path / "van.txt").write_text("canpath-decoders v1\nmy van, 2F5, 0, 1, 7FFF, 0.01, offset\n")
    with pytest.raises(ScenarioError, match=f"^scenario file: {message}"):
        load_scenario(_write_scenario(tmp_path, **vehicle))


def test_scenario_file_leaves_defaults_to_the_dataclasses(tmp_path):
    loaded = load_scenario(_write_scenario(tmp_path, model="opel crossland"))
    assert loaded.decoder == AngleDecoder(id=0x2F5)
    assert loaded.vehicle.wheelbase == 2.604
    defaults = SimScenario(loaded.name, loaded.graph, loaded.route, loaded.speed_profile, loaded.decoder, loaded.vehicle)
    assert loaded == defaults


def test_scenario_file_missing_key(tmp_path):
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ScenarioError, match="missing key"):
        load_scenario(str(scenario_file))


@pytest.mark.parametrize(
    "extra,key",
    [
        ({"steer_max": 35.0}, "steer_max"),
        ({"swa_rte": 50.0}, "swa_rte"),
        ({"decoder": {"id": "2F5", "sacle": 0.1}, "wheelbase": 2.6}, "decoder"),
    ],
)
def test_scenario_file_unknown_key_is_an_error(tmp_path, extra, key):
    sc = turn_left_90()
    sc.graph.save(str(tmp_path / "roads.txt"))
    doc = {"name": "x", "graph": "roads.txt", "route": sc.route, "speed_profile": [[0.0, 20.0]]}
    doc.update({"model": "renault captur", **extra})
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=f"unknown key '{key}'"):
        load_scenario(str(scenario_file))


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"model": "renault captur", "wheelbase": "2.6"}, "'wheelbase' must be a finite number, got '2.6'"),
        ({"model": "renault captur", "swa_rate": None}, "'swa_rate' must be a finite number, got None"),
        ({"model": "renault captur", "route": 5}, "'route' must be a list, got 5"),
        ({"model": "renault captur", "route": [1, "2"]}, "'route' must be an integer, got '2'"),
        (
            {"model": "renault captur", "speed_profile": [[0.0, 20.0, 5]]},
            r"'speed_profile' must be a list of 2 items, got \[0.0, 20.0, 5\]",
        ),
        ({"model": "renault captur", "speed_profile": {"0": 20}}, "'speed_profile' must be a list, got {'0': 20}"),
        (
            {"model": "renault captur", "speed_profile": [[0.0, "20"]]},
            "'speed_profile' must be a finite number, got '20'",
        ),
        ({"model": "renault captur", "graph": 5}, "'graph' must be a string, got 5"),
        ({"model": "renault captur", "decoder_file": 5}, "'decoder_file' must be a string, got 5"),
        ({"model": "renault captur", "name": None}, "'name' must be a string, got None"),
    ],
    ids=[
        "wheelbase-string", "swa_rate-null", "route-number", "route-string-edge", "profile-entry-of-3",
        "profile-object", "profile-string-speed", "graph-number", "decoder_file-number", "name-null",
    ],
)
def test_scenario_file_wrongly_typed_value_is_an_error(tmp_path, extra, message):
    sc = turn_left_90()
    sc.graph.save(str(tmp_path / "roads.txt"))
    doc = {"name": "x", "graph": "roads.txt", "route": sc.route, "speed_profile": [[0.0, 20.0]], **extra}
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=f"^scenario file: {message}$"):
        load_scenario(str(scenario_file))


def test_scenario_file_with_model_and_decoder_is_an_error(tmp_path):
    scenario_file = _write_scenario(tmp_path, model="renault captur", decoder={"id": "2F5"})
    with pytest.raises(ScenarioError, match="unknown key 'decoder'"):
        load_scenario(scenario_file)
