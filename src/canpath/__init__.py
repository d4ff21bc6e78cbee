"""canpath: reconstruct a driven path from a CAN-bus log of steering-angle
frames and OBD-II speed responses."""

__version__ = "0.1.0"

from .canlog import CanFrame, IdFilter, filter_frames, format_line, parse_line
from .geokin import VehiclePose, VehicleSpec
from .inference import InferenceParams, infer_path
from .mapmatch import ExternalMatcher, GraphMatcher, MatcherConfig, MatchResult
from .obd import encode_speed_request, response_speed_kmh
from .reveng import AngleDecoder, encode_angle, lookup_vehicle, payload_angle
from .roadgraph import RoadGraph
from .synthgen import SimScenario, simulate
from .trackeval import Track, compare_tracks, nw_align, read_gpx, write_gpx

__all__ = [
    "AngleDecoder",
    "CanFrame",
    "ExternalMatcher",
    "GraphMatcher",
    "IdFilter",
    "InferenceParams",
    "MatchResult",
    "MatcherConfig",
    "RoadGraph",
    "SimScenario",
    "Track",
    "VehiclePose",
    "VehicleSpec",
    "compare_tracks",
    "encode_angle",
    "encode_speed_request",
    "filter_frames",
    "format_line",
    "infer_path",
    "lookup_vehicle",
    "nw_align",
    "parse_line",
    "payload_angle",
    "read_gpx",
    "response_speed_kmh",
    "simulate",
    "write_gpx",
]
