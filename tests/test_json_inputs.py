"""The two JSON inputs, a tune manifest and a scenario file, with one value
swapped for a value of the wrong JSON type: the command either runs or
ends in one ``error:`` line, never a traceback.

Only types are drawn, never magnitudes: ``simulate`` runs
``route_length * swa_rate / speed`` steps, so a huge rate or a tiny
profile speed would be a memory test, not a type test.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from canpath.cli import main
from canpath.scenarios import turn_left_90

SHEET = "canpath-decoders v1\nmy hatchback, 0C6, 0, 1, 7FFF, 0.01, offset, 2.60\n"

# one value per JSON type; an empty object is left out because an empty
# "grids" is the valid default grid, 500 combinations
_BY_TYPE = {
    "null": None,
    "bool": True,
    "string": "x",
    "number": 5,
    "list": ["x"],
    "empty list": [],
    "object": {"x": 1},
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A scenario file and a one-combination tune manifest on its drive,
    both naming the car through a decoder file, as valid inputs."""
    base = tmp_path_factory.mktemp("json-inputs")
    sc = turn_left_90()
    sc.graph.save(str(base / "roads.txt"))
    (base / "car.txt").write_text(SHEET)
    scenario = {
        "name": "leftturn",
        "graph": "roads.txt",
        "route": sc.route,
        "speed_profile": [[0.0, 20.0]],
        "model": "my hatchback",
        "decoder_file": "car.txt",
        "wheelbase": 2.6,
        "swa_rate": 100.0,
        "obd_rate": 10.0,
        "start_bearing_error": 0.0,
    }
    (base / "scenario.json").write_text(json.dumps(scenario))
    assert _run(["synth", base / "scenario.json", "--out-dir", base / "sim"])[0] == 0
    sim = json.loads((base / "sim" / "leftturn_manifest.json").read_text())
    track = {
        "name": "leftturn",
        "log": "sim/leftturn.log",
        "truth": "sim/leftturn_truth.gpx",
        "start": sim["start"],
        "model": "my hatchback",
        "decoder_file": "car.txt",
        "wheelbase": 2.6,
    }
    grids = {"t_window": [0.5], "speed_max": [50.0], "steer_max": [35.0], "max_interpolation_points": [30]}
    manifest = {"graph": "roads.txt", "tracks": [track], "grids": grids}
    (base / "tune.json").write_text(json.dumps(manifest))
    assert _run(["tune", base / "tune.json", "--out", base / "grid.csv"])[0] == 0
    return base, scenario, manifest


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "list", dict: "object"}[type(value)]


def _paths(doc, prefix=()):
    """Every key and list index in `doc`, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _wrong_values(original) -> list:
    """A value of each other JSON type; a fraction where an integer is."""
    kind = _json_type(original)
    wrong = [v for t, v in _BY_TYPE.items() if t != kind and not (kind == "list" and t == "empty list")]
    if isinstance(original, int) and not isinstance(original, bool):
        wrong.append(0.5)
    return wrong


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _check_one_input(base, command, doc, data, extra_args):
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(st.sampled_from(_wrong_values(_get(doc, path))), label="value")
    target = base / f"fuzzed_{command}.json"
    target.write_text(json.dumps(_replaced(doc, path, value)))
    code, err = _run([command, target, *extra_args])
    lines = err.splitlines()
    assert code == 0 or (len(lines) == 1 and lines[0].startswith("error: ")), (code, err)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_tune_manifest_with_a_wrongly_typed_value_runs_or_is_one_error_line(work, data):
    base, _scenario, manifest = work
    _check_one_input(base, "tune", manifest, data, ["--out", base / "fuzzed_grid.csv"])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_scenario_file_with_a_wrongly_typed_value_runs_or_is_one_error_line(work, data):
    base, scenario, _manifest = work
    _check_one_input(base, "synth", scenario, data, ["--out-dir", base / "fuzzed_sim"])
