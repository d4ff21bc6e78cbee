"""The two JSON inputs, scenario files (``synth``) and tune manifests
(``tune``), under one set of rules: only known keys; a key that is present
holds its JSON type (``null`` does not leave it out) and, where the key has
one, its range (a positive wheelbase or sample rate, a scenario name that
is a plain file name, grid values that ``InferenceParams`` accepts); files
named relative to the document; one vehicle block. A broken rule is one
error naming the document and the key: ``scenario file:``
(``ScenarioError``), ``manifest:`` or ``manifest track <name, or index
until the name is read>:`` (``ManifestError``).
"""

from __future__ import annotations

import json
import math
import os

from .canlog import read_log
from .geokin import VehiclePose
from .reveng import VehicleError, resolve_entry, resolve_spec
from .roadgraph import RoadGraph
from .synthgen import ScenarioError, SimResult, SimScenario
from .trackeval import load_gpx
from .tuner import TuneTrack, resolve_grids

_SCENARIO_KEYS = frozenset({
    "name", "graph", "route", "speed_profile", "model", "decoder_file", "wheelbase",
    "swa_rate", "obd_rate", "start_bearing_error",
})
_MANIFEST_KEYS = frozenset({"graph", "tracks", "grids"})
_TRACK_KEYS = frozenset({"name", "log", "truth", "start", "model", "decoder_file", "wheelbase"})

# the vehicle keys as resolver messages spell them
_VEHICLE_NAMES = ("'model'", "'decoder_file'", "'wheelbase'")

# what a value may be, by the words a message uses for it; a bool is not a
# number, and neither is a numeric string
_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a finite number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a list": lambda v: isinstance(v, list),
    "a list of 2 items": lambda v: isinstance(v, list) and len(v) == 2,
    "a list of 3 items": lambda v: isinstance(v, list) and len(v) == 3,
    "a JSON object": lambda v: isinstance(v, dict),
    # the range of a value already read as a string or a finite number; a
    # scenario's name names its output files, which stay in the output directory
    "a plain file name": lambda v: v not in ("", ".", "..") and not any(s and s in v for s in ("/", os.sep, os.altsep)),
    "a positive number": lambda v: v > 0,
}


class ManifestError(ValueError):
    """A tune manifest that breaks the rules; ``tune`` reports it as a usage error."""


def load_scenario(path: str) -> SimScenario:
    """Load a scenario file: name, graph, route (edge ids), speed_profile
    ([[from_m, kmh], ...]) and the vehicle block; optionally swa_rate,
    obd_rate and start_bearing_error. The steering limit is not a scenario
    key: it is the inference parameter ``steer_max``."""
    doc = _document(path, _SCENARIO_KEYS, "scenario file", ScenarioError)
    graph_file = doc.path("graph")
    entry, vehicle = _vehicle(doc)
    name = doc.check(doc.get("name", "a string"), "a plain file name", "name")
    route = [doc.check(e, "an integer", "route") for e in doc.get("route", "a list")]
    pairs = [doc.check(e, "a list of 2 items", "speed_profile") for e in doc.get("speed_profile", "a list")]
    speed_profile = [tuple(float(doc.check(v, "a finite number", "speed_profile")) for v in p) for p in pairs]
    rates = ("swa_rate", "obd_rate", "start_bearing_error")
    optional = {k: doc.get(k, "a finite number") for k in rates if k in doc.value}
    for key in ("swa_rate", "obd_rate"):
        if key in optional:
            doc.check(optional[key], "a positive number", key)
    graph = RoadGraph.load(graph_file)
    try:
        return SimScenario(name, graph, route, speed_profile, entry.decoder, vehicle, **optional)
    except ScenarioError as exc:
        raise ScenarioError(f"{doc.where}: {exc}") from None


def load_manifest(path: str) -> tuple[RoadGraph, dict, list[TuneTrack], list[list[tuple[int, str]]]]:
    """Load a tune manifest: the road graph, the grids laid over the
    defaults, a ``TuneTrack`` per entry of ``tracks``, each with log,
    truth, start ([lat, lon, bearing]), the vehicle block and optionally a
    name (by default the log's file name), and per track the log lines
    that ``read_log`` skipped."""
    doc = _document(path, _MANIFEST_KEYS, "manifest", ManifestError)
    graph_file = doc.path("graph")
    grids = doc.get("grids", "a JSON object", {})
    try:
        grids = resolve_grids(grids)
    except ValueError as exc:
        raise ManifestError(f"manifest grids: {exc}") from None
    entries = doc.get("tracks", "a list")
    graph = RoadGraph.load(graph_file)
    loaded = [_track(entry, index, doc.base) for index, entry in enumerate(entries)]
    return graph, grids, [track for track, _ in loaded], [skipped for _, skipped in loaded]


def _track(entry, index: int, base: str) -> tuple[TuneTrack, list[tuple[int, str]]]:
    doc = _Object(entry, _TRACK_KEYS, f"manifest track {index}", base, ManifestError)
    log = doc.path("log")
    name = doc.get("name", "a string", os.path.basename(log))
    doc.where = f"manifest track {name!r}"
    start = [float(doc.check(v, "a finite number", "start")) for v in doc.get("start", "a list of 3 items")]
    try:
        start = VehiclePose(*start)
    except ValueError as exc:
        raise ManifestError(f"{doc.where}: 'start': {exc}") from None
    row, vehicle = _vehicle(doc)
    truth = doc.path("truth")
    frames, skipped = read_log(log, strict=False)
    return TuneTrack(name, frames, load_gpx(truth), start, row.decoder, vehicle), skipped


def manifest_for(scenario: SimScenario, result: SimResult, log_file: str, truth_file: str) -> dict:
    return {
        "scenario": scenario.name,
        "log": log_file,
        "truth": truth_file,
        "start": [result.start.lat, result.start.lon, result.start.bearing],
        "route_length_m": round(result.route_length_m, 3),
        "swa_id": f"0x{scenario.decoder.id:03X}",
        "wheelbase": scenario.vehicle.wheelbase,
        "frames": len(result.frames),
    }


# -- key readers -------------------------------------------------------------------


class _Object:
    """A JSON object of a document that holds only `allowed` keys, read key
    by key. `where` names it in messages, `base` is the directory that file
    names are relative to, and `error` is the document's exception."""

    def __init__(self, value, allowed: frozenset, where: str, base: str, error: type):
        if not isinstance(value, dict):
            raise error(f"{where}: must be a JSON object, got {value!r}")
        unknown = sorted(set(value) - allowed)
        if unknown:
            raise error(f"{where}: unknown key {unknown[0]!r}")
        self.value, self.where, self.base, self.error = value, where, base, error

    def check(self, value, kind: str, key: str):
        """`value`, read from `key`, if it is `kind` (one of ``_KINDS``)."""
        if not _KINDS[kind](value):
            raise self.error(f"{self.where}: {key!r} must be {kind}, got {value!r}")
        return value

    def get(self, key: str, kind: str, default=...):
        """The value of `key`, which must be `kind`; a missing key is `default`, if given."""
        if key in self.value:
            return self.check(self.value[key], kind, key)
        if default is ...:
            raise self.error(f"{self.where}: missing key {key!r}")
        return default

    def path(self, key: str, default=...) -> str | None:
        """A file named relative to the document."""
        name = self.get(key, "a string", default)
        return None if name is None else os.path.join(self.base, name)


def _document(path: str, allowed: frozenset, where: str, error: type) -> _Object:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            value = json.load(fp)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return _Object(value, allowed, where, os.path.dirname(os.path.abspath(path)), error)


def _vehicle(doc: _Object):
    """The decoder-sheet row and vehicle spec that model, decoder_file and wheelbase name."""
    model = doc.get("model", "a string", None)
    wheelbase = doc.get("wheelbase", "a finite number", None)
    if wheelbase is not None:
        doc.check(wheelbase, "a positive number", "wheelbase")
    try:
        entry = resolve_entry(model, doc.path("decoder_file", None), _VEHICLE_NAMES)
        return entry, resolve_spec(entry, wheelbase, _VEHICLE_NAMES)
    except VehicleError as exc:
        raise doc.error(f"{doc.where}: {exc}") from None
