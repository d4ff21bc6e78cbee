"""Per-layer tracing from outside the program.

The tracer replaces layer-boundary functions of the ``canpath`` package with
wrappers for the length of a traced pass and restores them afterwards. A
module that imported a function by name (``mapmatch.route_distance``,
``inference.decode_angle``, ``tuner.infer_path``) holds its own binding, so
every module global bound to the original function is patched, not only
the defining one.

Spans (name, start, end, parent, operation id) are kept in flat arrays in
memory and written out at the end. A span's self time is its duration minus
the durations of its direct children; with one thread, children never
overlap, so that is exactly the part of the interval they do not cover.
Functions called millions of times per drive (``geodesic_*``,
``decode_angle``, ``decode_speed_response``) are only counted.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from array import array
from collections import Counter

# (module, qualified name) of each function that gets a span.
SPANNED = (
    ("canlog", "parse_log"),
    ("inference", "infer_path"),
    ("inference", "window_aggregate"),
    ("mapmatch", "GraphMatcher.match"),
    ("roadgraph", "RoadGraph.nearest_edges"),
    ("roadgraph", "RoadGraph.project_to_edge"),
    ("roadgraph", "RoadGraph.node_distances"),
    ("roadgraph", "route_distance"),
    ("trackeval", "compare_tracks"),
    ("trackeval", "nw_align"),
    ("trackeval", "resample_track"),
    ("trackeval", "write_gpx"),
    ("tuner", "evaluate_track"),
)

# Functions that are only counted.
COUNTED = (
    ("geokin", "geodesic_inverse"),
    ("geokin", "geodesic_forward"),
    ("reveng", "decode_angle"),
    ("obd", "decode_speed_response"),
)


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(f"canpath.{module}")
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_op = array("l")
        self._stack: list[int] = []
        self.op = -1  # index of the current operation
        self.counts: Counter[str] = Counter()
        self._op_sources: set = set()
        self._match_candidates: list[int] | None = None
        self._outputs: set = set()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        for module, qualname in SPANNED:
            self._patch(module, qualname, self._span_wrapper)
        for module, qualname in COUNTED:
            self._patch(module, qualname, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, module: str, qualname: str, make) -> None:
        try:
            owner, name = _resolve(module, qualname)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{qualname}")
            return
        wrapper = make(f"{module}.{qualname}", original)
        if isinstance(owner, type):
            self._restore.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "canpath" or mod_name.startswith("canpath."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        short = name.rsplit(".", 1)[-1]
        before = getattr(self, "_before_" + short, None)
        after = getattr(self, "_after_" + short, None)
        stack = self._stack

        def spanned(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.start)
            self.span_name.append(name_id)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                self.end[idx] = time.perf_counter()
                if after is not None:
                    after(args, kwargs, result)

        return spanned

    # -- operations ---------------------------------------------------------------

    @property
    def ops(self) -> int:
        return self.op + 1

    def begin_op(self) -> None:
        self.op += 1
        self._op_sources = set()

    def end_op(self) -> None:
        self.counts["roadgraph.distinct_sources"] += len(self._op_sources)

    # -- observers: counts taken at the layer boundary ------------------------------
    # An _after_ observer also runs when the call raised; its result is None.

    def _after_parse_log(self, args, kwargs, result) -> None:
        if result is not None:
            frames, skipped = result
            self.counts["canlog.lines"] += len(frames) + len(skipped)
            self.counts["canlog.lines_skipped"] += len(skipped)

    def _after_infer_path(self, args, kwargs, result) -> None:
        if result is None:
            return
        diag = result.diagnostics
        self.counts["inference.windows"] += diag.windows
        self.counts["inference.batches"] += diag.batches_matched
        self.counts["inference.fallback_spans"] += len(diag.fallback_spans)
        start = args[3] if len(args) > 3 else kwargs["start"]
        digest = hashlib.sha256(result.gpx.encode()).hexdigest()
        self._outputs.add((start.lat, start.lon, start.bearing, digest))

    def _before_match(self, args, kwargs) -> None:
        self._match_candidates = []

    def _after_match(self, args, kwargs, result) -> None:
        # Viterbi looks up every point's candidates before scoring, and stops
        # at the first point that has none.
        counts = self._match_candidates or []
        self._match_candidates = None
        self.counts["mapmatch.transitions"] += sum(a * b for a, b in zip(counts, counts[1:]))

    def _after_nearest_edges(self, args, kwargs, result) -> None:
        if result is None:
            return
        self.counts["roadgraph.candidates"] += len(result)
        if self._match_candidates is not None:
            self._match_candidates.append(len(result))

    def _after_project_to_edge(self, args, kwargs, result) -> None:
        graph, edge_id = args[0], args[1]
        self.counts["roadgraph.segments_projected"] += len(graph.edges[edge_id].geometry) - 1

    def _after_node_distances(self, args, kwargs, result) -> None:
        self._op_sources.add((id(args[0]), args[1]))

    def _after_nw_align(self, args, kwargs, result) -> None:
        self.counts["trackeval.nw_cells"] += len(args[0].points) * len(args[1].points)

    @property
    def distinct_outputs(self) -> int:
        """Distinct (track, GPX digest) pairs over all infer_path calls."""
        return len(self._outputs)

    # -- results ------------------------------------------------------------------

    def durations(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path: str) -> None:
        """One span per line: op, name, start, end, parent index."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("op\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fp.write(
                    f"{self.span_op[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.start[i] - t0:.6f}\t{self.end[i] - t0:.6f}\t{self.parent[i]}\n"
                )
