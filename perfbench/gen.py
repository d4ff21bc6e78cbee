"""Seeded input generator for the canpath benchmark.

Builds every input from the public scenario and simulator APIs
(``scenarios.PathBuilder``, ``scenarios.assemble_graph``,
``synthgen.simulate``) and writes one JSON document to standard output
holding only text: road-graph text, candump log text and ground-truth GPX
text, plus each drive's start pose. The benchmark runs this in a child
process, so the simulator never shares an interpreter, a timer or a peak
RSS figure with the program under test.

    python3 perfbench/gen.py --workload highway --seed 0 [--tiny]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# One junk line per this many log lines. Each is a real line cut short
# inside its timestamp, so parse_log(strict=False) always skips it and the
# decoded frames, hence the GPX bytes, are those of the clean log.
JUNK_EVERY = 1000

# Drives per workload. Every operation loads its own graph, so cycling
# through the drives repeats identical work; more drives only add variety.
# A highway operation takes about 5 s, so a timed run holds seven or eight:
# one drive, run each time, gives its median that many samples of one input.
# Grid drives differ in cost with their place on the grid: with four drives
# a seed, the medians of some seeds sat 12 % above the rest in every run.
# Eight drives average that out better; a run holds 11-18 operations.
HIGHWAY_DRIVES = 1
GRID_DRIVES = 8

# Nodes per side of the street grid. 80x80 (the ROADMAP's largest) swung
# up to 1.6x between runs on a shared 2-core machine, against 1.2-1.4x for
# 40x40 runs interleaved with them; Dijkstra still searches all 1,600 nodes.
GRID_N = 40
GRID_BLOCK_M = 100.0
GRID_VERTEX_M = 10.0  # realistic map geometry; 2-vertex edges smear steering
GRID_BLOCKS = 30  # route length in blocks (3 km)
GRID_LEGS = 7  # straight legs, so six turns

# The tuning grid: at least two values of each parameter. speed_max and
# steer_max straddle the peaks of the seeded binding track, so their clamps
# bind at the low value and not at the high one.
TUNING_GRIDS = {
    "t_window": [0.1, 0.5],
    "speed_max": [40.0, 70.0],
    "steer_max": [30.0, 40.0],
    "max_interpolation_points": [10, 30],
}


def _log_text(frames, rng: random.Random) -> str:
    from canpath.canlog import format_line

    lines = []
    for frame in frames:
        line = format_line(frame)
        if rng.randrange(JUNK_EVERY) == 0:
            lines.append(line[: rng.randrange(1, line.index(")"))])
        lines.append(line)
    return "\n".join(lines) + "\n"


def _drive(name: str, scenario, rng: random.Random, with_graph: bool) -> dict:
    from canpath.synthgen import simulate
    from canpath.trackeval import write_gpx

    result = simulate(scenario)
    drive = {
        "name": name,
        "log": _log_text(result.frames, rng),
        "truth": write_gpx(result.truth),
        "start": [result.start.lat, result.start.lon, result.start.bearing],
        "km": result.route_length_m / 1000.0,
    }
    if with_graph:
        drive["graph"] = scenario.graph.to_text()
    return drive


def _scenario(name, graph, route, speed_profile):
    from canpath.scenarios import DEFAULT_DECODER, DEFAULT_VEHICLE
    from canpath.synthgen import SimScenario

    return SimScenario(
        name=name,
        graph=graph,
        route=route,
        speed_profile=speed_profile,
        decoder=DEFAULT_DECODER,
        vehicle=DEFAULT_VEHICLE,
    )


def _speed_profile(total_m: float, speeds: list[float], rng: random.Random) -> list[tuple[float, float]]:
    """Equal-length pieces at a seeded order of fixed speeds: the drive time,
    hence the log length, is the same for every seed."""
    order = list(speeds)
    rng.shuffle(order)
    piece = total_m / len(order)
    return [(i * piece, kmh) for i, kmh in enumerate(order)]


def highway_drive(rng: random.Random, tiny: bool):
    """Two chained main-line edges of 5 km (0.5 km when tiny), like
    scenarios.highway_10km: straights with a vertex every 10 m and two
    gentle 275 m arcs of radius 1-3 km with one every 2 m, plus a decoy
    ramp at the start, the junction and the end.

    The drive covers the first edge only. Every point still projects onto
    5 km edges of some 800 vertices, but an operation takes about 5 s, not
    10 s, so a timed run holds twice as many, each a shorter interval for
    the reference speed to describe."""
    from canpath.scenarios import PathBuilder, assemble_graph

    scale = 0.1 if tiny else 1.0
    arc_m = 275.0 * scale
    pb = PathBuilder(heading=rng.uniform(0.0, 360.0))
    paths = {}
    ramp_id = 10

    def ramp():
        nonlocal ramp_id
        side = rng.choice((-1.0, 1.0))
        paths[ramp_id] = pb.branch().arc(300.0, side * 30.0, spacing=2).straight(150.0).take()
        ramp_id += 1

    for edge_id in (1, 2):
        ramp()
        straights = [rng.uniform(0.5, 1.5) for _ in range(3)]
        unit = (5000.0 * scale - 2 * arc_m) / sum(straights)
        for i, share in enumerate(straights):
            pb.straight(share * unit, spacing=10)
            if i < 2:
                radius = rng.uniform(1000.0, 3000.0)
                sweep = math.degrees(arc_m / radius) * rng.choice((-1.0, 1.0))
                pb.arc(radius, sweep, spacing=2)
        paths[edge_id] = pb.take()
    ramp()
    graph = assemble_graph(paths)
    total = 5000.0 * scale
    return _scenario("highway", graph, [1], _speed_profile(total, [90.0, 100.0, 110.0, 120.0, 130.0], rng))


def grid_graph(n: int):
    """n x n street grid, 100 m blocks, a vertex every 10 m on every edge.
    Edge (r, c)->(r, c+1) has id r*n + c + 1; (r, c)->(r+1, c) has n*n + that."""
    from canpath.scenarios import PathBuilder, assemble_graph

    def street(a, heading):
        pts = PathBuilder(pos=a, heading=heading).straight(GRID_BLOCK_M, spacing=GRID_VERTEX_M).take()
        # exact corner coordinates, so neighbouring edges share their node
        return [(round(x, 6), round(y, 6)) for x, y in pts]

    paths = {}
    for r in range(n):
        for c in range(n):
            a = (c * GRID_BLOCK_M, r * GRID_BLOCK_M)
            if c + 1 < n:
                paths[r * n + c + 1] = street(a, 90.0)
            if r + 1 < n:
                paths[n * n + r * n + c + 1] = street(a, 0.0)
    return assemble_graph(paths)


def grid_route(n: int, blocks: int, legs: int, rng: random.Random) -> list[int]:
    """A staircase route of `blocks` blocks in `legs` straight legs; it
    never revisits a node.

    Turns alternate left and right. The simulator steers a sharp corner of
    10 m-vertex geometry through about 81 degrees, not 90, and inference
    does not correct the heading; alternating turns keep that error from
    adding up over the drive."""
    while True:
        route = _try_grid_route(n, blocks, legs, rng)
        if route is not None:
            return route


def _try_grid_route(n: int, blocks: int, legs: int, rng: random.Random) -> list[int] | None:
    cuts = sorted(rng.sample(range(2, blocks - 1), legs - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [blocks])]
    if min(lengths) < 2:
        return None
    moves = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # north, east, south, west
    r, c = rng.randrange(n), rng.randrange(n)
    heading = rng.randrange(4)
    turn = rng.choice((1, 3))
    route = []
    for i, length in enumerate(lengths):
        if i:
            heading = (heading + turn) % 4
            turn = 4 - turn
        dr, dc = moves[heading]
        for _ in range(length):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < n and 0 <= nc < n):
                return None
            if dr:
                route.append(n * n + min(r, nr) * n + c + 1)
            else:
                route.append(r * n + min(c, nc) + 1)
            r, c = nr, nc
    return route


def binding_track(rng: random.Random):
    """A tuning track whose clamps bind: a curve at a peak speed between
    the two speed_max values, then a tight turn whose steering angle lies
    between the two steer_max values."""
    from canpath.scenarios import PathBuilder, assemble_graph

    pb = PathBuilder(heading=0.0)
    fast = rng.uniform(50.0, 62.0)  # km/h: above 40, below 70
    radius = rng.uniform(3.7, 4.3)  # m: atan(2.6 / r) is 31-35 degrees
    path = (
        pb.straight(150)
        .arc(150.0, rng.choice((-40.0, 40.0)))
        .straight(100)
        .arc(radius, rng.choice((-120.0, 120.0)), spacing=0.5)
        .straight(60)
        .take()
    )
    graph = assemble_graph({401: path}, origin=(44.8000, 10.9200), id_base=400)
    return _scenario("binding", graph, [401], [(0.0, fast), (280.0, 12.0)])


def generate(workload: str, seed: int, tiny: bool) -> dict:
    from canpath.scenarios import DEFAULT_DECODER, DEFAULT_VEHICLE, merge_graphs, tuning_suite

    rng = random.Random(f"{workload}:{seed}")
    doc = {"decoder_id": DEFAULT_DECODER.id, "wheelbase": DEFAULT_VEHICLE.wheelbase}
    if workload == "highway":
        doc["drives"] = [
            _drive(f"highway{i}", highway_drive(rng, tiny), rng, with_graph=True)
            for i in range(1 if tiny else HIGHWAY_DRIVES)
        ]
    elif workload == "grid_city":
        n, blocks, legs = (8, 10, 3) if tiny else (GRID_N, GRID_BLOCKS, GRID_LEGS)
        graph = grid_graph(n)
        doc["graph"] = graph.to_text()
        doc["drives"] = []
        for i in range(2 if tiny else GRID_DRIVES):
            route = grid_route(n, blocks, legs, rng)
            total = blocks * GRID_BLOCK_M
            scenario = _scenario("grid_city", graph, route, _speed_profile(total, [30.0, 40.0, 50.0], rng))
            doc["drives"].append(_drive(f"grid{i}", scenario, rng, with_graph=False))
    elif workload == "tuning":
        suite = tuning_suite() + [binding_track(rng)]
        if tiny:
            suite = suite[:1] + suite[-1:]
        doc["graph"] = merge_graphs([sc.graph for sc in suite]).to_text()
        doc["drives"] = [_drive(sc.name, sc, rng, with_graph=False) for sc in suite]
        doc["grids"] = {k: v[:1] if tiny else v for k, v in TUNING_GRIDS.items()}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    json.dump(generate(args.workload, args.seed, args.tiny), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
