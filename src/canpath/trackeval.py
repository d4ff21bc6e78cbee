"""GPX track reading/writing and alignment-based track similarity.

Two tracks are compared by global sequence alignment (Needleman-Wunsch)
where a pair of points "matches" when their great-circle distance is
within an epsilon. The similarity score is matched pairs over the longer
track's length.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timezone

from .geokin import EARTH_RADIUS_M, LatLon, cumulative_lengths, haversine, haversine_point, point_along, polyline_length

MATCH_SCORE = 1
MISMATCH_SCORE = -1
GAP_SCORE = -1
# Default distance in metres within which two points match
MATCH_EPSILON_M = 10.0

# Half-width of nw_align's first band; a band that does not certify is
# filled once more at the width its score calls for.
_BAND_START = 8
# Traceback moves, one byte per filled cell: pair i-1 with j-1, a gap in b
# (step to row i - 1), a gap in a (step to column j - 1).
_PAIR, _GAP_B, _GAP_A = 0, 1, 2

# Cell widths of the alignment's point hash are widened by 0.1 % (plus 1e-9
# degrees) so rounding in the distance never puts a pair within epsilon two
# cells apart.
_CELL_PAD = 1.001

GPX_NS = "http://www.topografix.com/GPX/1/1"


class GpxError(ValueError):
    pass


@dataclass(frozen=True)
class Track:
    points: tuple[LatLon, ...]
    times: tuple[float, ...] | None = None

    def __post_init__(self):
        for lat, lon in self.points:
            if not (-90 <= lat <= 90 and -180 <= lon <= 180):
                raise ValueError(f"coordinate ({lat}, {lon}) out of range")
        if self.times is not None and len(self.times) != len(self.points):
            raise ValueError("times must align with points")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def length_m(self) -> float:
        return polyline_length(self.points)


@dataclass(frozen=True)
class AlignmentResult:
    matched_pairs: int
    aligned_length: int
    accuracy: float
    flags_a: tuple[bool, ...]
    flags_b: tuple[bool, ...]
    score: int = 0  # optimal alignment score from the dynamic program


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_gpx(text: str) -> Track:
    """Parse GPX 1.1 text; multiple segments/tracks concatenate in order."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise GpxError(f"malformed GPX document: {exc}") from None
    points: list[LatLon] = []
    times: list[float | None] = []
    index = 0
    for trkpt in root.iter():
        if _localname(trkpt.tag) != "trkpt":
            continue
        lat_text = trkpt.get("lat")
        lon_text = trkpt.get("lon")
        if lat_text is None or lon_text is None:
            missing = "lat" if lat_text is None else "lon"
            raise GpxError(f"trkpt {index}: missing {missing} attribute")
        try:
            lat, lon = float(lat_text), float(lon_text)
        except ValueError:
            raise GpxError(f"trkpt {index}: non-numeric coordinate") from None
        points.append((lat, lon))
        time_el = next((c for c in trkpt if _localname(c.tag) == "time"), None)
        if time_el is not None and time_el.text:
            try:
                stamp = datetime.fromisoformat(time_el.text.replace("Z", "+00:00"))
                times.append(stamp.timestamp())
            except ValueError:
                raise GpxError(f"trkpt {index}: bad time {time_el.text!r}") from None
        else:
            times.append(None)
        index += 1
    have_times = points and all(t is not None for t in times)
    return Track(
        points=tuple(points),
        times=tuple(times) if have_times else None,  # type: ignore[arg-type]
    )


def load_gpx(path: str) -> Track:
    with open(path, "r", encoding="utf-8") as fp:
        return read_gpx(fp.read())


def _format_time(epoch: float) -> str:
    stamp = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


def write_gpx(track: Track) -> str:
    """Serialize a single-track, single-segment GPX 1.1 document.

    Formatting is fixed (7 decimal places) so identical tracks serialize to
    identical bytes.
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<gpx version="1.1" creator="canpath" xmlns="{GPX_NS}">',
        "  <trk>",
        "    <trkseg>",
    ]
    for i, (lat, lon) in enumerate(track.points):
        if track.times is not None:
            lines.append(
                f'      <trkpt lat="{lat:.7f}" lon="{lon:.7f}">'
                f"<time>{_format_time(track.times[i])}</time></trkpt>"
            )
        else:
            lines.append(f'      <trkpt lat="{lat:.7f}" lon="{lon:.7f}"/>')
    lines += ["    </trkseg>", "  </trk>", "</gpx>", ""]
    return "\n".join(lines)


def save_gpx(track: Track, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(write_gpx(track))


def _within_sets(pa, pb, match_epsilon: float) -> list[set[int]]:
    """For each point of pa, the indices j of pb with
    ``geodesic_distance(pa[i], pb[j]) <= match_epsilon``.

    The points of pb are hashed into cells one epsilon of latitude high and
    one bound of longitude wide, and each point of pa tests only the pb
    points in its own and the eight neighbouring cells. The haversine
    distance d of two points bounds |dlat| <= d/R and, with phi the tracks'
    largest |lat|, |sin(dlon/2)| <= sin(d/2R)/cos(phi); so any pair within
    epsilon sits in neighbouring cells (both widths are padded for
    rounding). Where no such longitude bound exists, near a pole, or where
    the haversine's longitude wrap can join points across +/-180 degrees,
    every pair is tested.
    """
    half = match_epsilon / (2.0 * EARTH_RADIUS_M)
    max_lat = max((abs(p[0]) for p in (*pa, *pb)), default=0.0)
    s = math.sin(half) / math.cos(math.radians(max_lat)) if 0.0 < half < 1.0 else math.inf
    lon_cell = math.degrees(2.0 * math.asin(s)) * _CELL_PAD + 1e-9 if s <= 0.5 else math.inf
    hb = [haversine_point(q) for q in pb]
    if lon_cell == math.inf or any(abs(p[1]) >= 180.0 - lon_cell for p in (*pa, *pb)):
        return [{j for j, q in enumerate(hb) if haversine(p, q) <= match_epsilon} for p in map(haversine_point, pa)]
    lat_cell = math.degrees(2.0 * half) * _CELL_PAD + 1e-9
    cells: dict[tuple[int, int], list[int]] = {}
    for j, (lat, lon) in enumerate(pb):
        cells.setdefault((int(lat // lat_cell), int(lon // lon_cell)), []).append(j)
    rows = []
    for p in pa:
        ci, cj = int(p[0] // lat_cell), int(p[1] // lon_cell)
        hp = haversine_point(p)
        rows.append({
            j
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for j in cells.get((ci + di, cj + dj), ())
            if haversine(hp, hb[j]) <= match_epsilon
        })
    return rows


def _banded_fill(within, la: int, lb: int, w: int):
    """Fill the alignment matrix on the diagonals min(0, delta) - w <= j - i
    <= max(0, delta) + w, delta = lb - la, clipped to the matrix; cells
    outside count as -inf. Returns the score of cell (la, lb), the clipped
    diagonals dlo and dhi, and per row i the direction bytes of its cells
    j = max(0, i + dlo) .. min(lb, i + dhi): _PAIR if the cell's score
    equals the pair move's, else _GAP_B if it equals the gap in b's (from
    row i - 1), else _GAP_A, the traceback's tie order.
    """
    dlo = max(-la, min(0, lb - la) - w)
    dhi = min(lb, max(0, lb - la) + w)
    width = dhi - dlo + 1
    # Stands for -inf: every cell in the band has a path from (0, 0) inside
    # it, so its score is at least -(la + lb), above this plus one.
    floor = -(la + lb) - 2
    # prev[k] is the score of cell (i - 1, i - 1 + dlo + k); prev[width] is
    # the -inf past the band's right edge.
    prev = [floor] * (width + 1)
    for j in range(dhi + 1):
        prev[j - dlo] = j * GAP_SCORE
    rows = [bytes([_GAP_A]) * (dhi + 1)]
    for i in range(1, la + 1):
        base = i + dlo
        klo, khi = max(0, -base), min(width - 1, lb - base)
        step = [MISMATCH_SCORE] * width
        for j in within[i - 1]:
            k = j + 1 - base
            if klo <= k <= khi:
                step[k] = MATCH_SCORE
        cur = [floor] * (width + 1)
        moves = bytearray(khi - klo + 1)  # all _PAIR
        s = floor
        for k in range(klo, khi + 1):
            pair = prev[k] + step[k]
            up = prev[k + 1] + GAP_SCORE
            left = s + GAP_SCORE
            if pair >= up and pair >= left:
                s = pair
            elif up >= left:
                s = up
                moves[k - klo] = _GAP_B
            else:
                s = left
                moves[k - klo] = _GAP_A
            cur[k] = s
        rows.append(moves)
        prev = cur
    return prev[lb - la - dlo], dlo, dhi, rows


def nw_align(a: Track, b: Track, match_epsilon: float = MATCH_EPSILON_M) -> AlignmentResult:
    """Global alignment: +1 for pairs within match_epsilon meters, -1 for
    non-matching pairs, -1 per gap. Accuracy = matched / max(len_a, len_b);
    two empty tracks count as identical. A non-finite or negative
    match_epsilon is a ValueError.

    Traceback ties prefer pairing, then a gap in b, then a gap in a.

    Which pairs are within epsilon is found by a cell hash over b
    (``_within_sets``), which evaluates the same distance predicate on
    every pair that can pass it, so the result equals that of testing all
    la*lb pairs.

    The dynamic program fills only a band of diagonals d = j - i (banded
    alignment: Fickett 1984, Ukkonen 1985) and keeps one direction byte
    per filled cell, so time and memory grow with la times the band width.
    With delta = lb - la, a band of half-width w holds the diagonals
    min(0, delta) - w <= d <= max(0, delta) + w. The result is still that
    of the full matrix, by a certificate:

    - A path starts on diagonal 0 and ends on delta; a gap step moves it
      one diagonal and a pair step none. To leave the band above it takes
      dhi + 1 gap steps out to diagonal dhi + 1 and dhi + 1 - delta back;
      below, 1 - dlo out and 1 - dlo + delta back. So it has at least g
      gap steps, the lesser of the two sums (both are 2w + 2 + |delta|
      until the band is clipped to the matrix).
    - A path with G gaps has (la + lb - G) / 2 pair steps, so it scores
      at most (la + lb - 3G) / 2, and a path that leaves the band at most
      (la + lb - 3g) / 2.
    - The band is accepted only if its optimum B is strictly above that
      bound. Then no optimal path of the full matrix leaves the band, so
      every cell on an optimal path holds its full-matrix value in the
      band. The traceback visits only such cells, and each of its equality
      tests holds in the band exactly when it holds in the full matrix (a
      predecessor that passes lies on an optimal path; one that fails can
      only be lower in the band). So the path, the flags, the matched count
      and the score are those of the full matrix, ties included.

    The first fill uses w = 8: a drive compared with its own recording
    pairs up near the diagonal and certifies there. Otherwise the second
    fill uses the least w whose bound is below that first B. B cannot fall
    as the band widens, so the second fill always certifies. Since B is at
    least -max(la, lb) (pairs along the diagonal, gaps for the rest), that
    w is at most 2 min(la, lb) / 3; for unrelated tracks of equal length
    the second band is about 8/9 of the full matrix.
    """
    if not (math.isfinite(match_epsilon) and match_epsilon >= 0):
        raise ValueError(f"match epsilon must be a finite distance of at least 0 m, got {match_epsilon}")
    pa, pb = a.points, b.points
    la, lb = len(pa), len(pb)
    if la == 0 and lb == 0:
        return AlignmentResult(0, 0, 1.0, (), (), score=0)

    within = _within_sets(pa, pb, match_epsilon)
    delta = lb - la
    best, dlo, dhi, rows = _banded_fill(within, la, lb, _BAND_START)
    gaps = min(2 * (dhi + 1) - delta, 2 * (1 - dlo) + delta)
    if 2 * best <= la + lb - 3 * gaps:
        # the least w with 2 * best > la + lb - 3 * (2w + 2 + |delta|)
        w = (la + lb - 2 * best - 6 - 3 * abs(delta)) // 6 + 1
        best, dlo, dhi, rows = _banded_fill(within, la, lb, w)

    flags_a = [False] * la
    flags_b = [False] * lb
    matched = 0
    aligned = 0
    i, j = la, lb
    while i > 0 or j > 0:
        aligned += 1
        move = rows[i][j - max(0, i + dlo)]
        if move == _PAIR:
            if (j - 1) in within[i - 1]:
                matched += 1
                flags_a[i - 1] = True
                flags_b[j - 1] = True
            i -= 1
            j -= 1
        elif move == _GAP_B:
            i -= 1
        else:
            j -= 1

    return AlignmentResult(
        matched_pairs=matched,
        aligned_length=aligned,
        accuracy=matched / max(la, lb),
        flags_a=tuple(flags_a),
        flags_b=tuple(flags_b),
        score=best,
    )


def resample_track(track: Track, spacing_m: float) -> Track:
    """Points every spacing_m meters along the track polyline (endpoints kept);
    a spacing that is not finite and positive is a ValueError.

    Makes similarity scores comparable between tracks recorded at different
    sampling rates.
    """
    if not (math.isfinite(spacing_m) and spacing_m > 0):
        raise ValueError(f"spacing must be a finite distance above 0 m, got {spacing_m}")
    pts = track.points
    if len(pts) < 2:
        return Track(points=pts)
    cum = cumulative_lengths(pts)
    total = cum[-1]
    if total == 0:
        return Track(points=(pts[0],))
    out: list[LatLon] = []
    target = 0.0
    # stop short of the end so the appended endpoint never duplicates a sample
    limit = total - max(1e-9, 1e-6 * spacing_m)
    while target < limit:
        out.append(point_along(pts, cum, target))
        target += spacing_m
    out.append(pts[-1])
    return Track(points=tuple(out))


def compare_tracks(
    a: Track,
    b: Track,
    match_epsilon: float = MATCH_EPSILON_M,
    spacing_m: float | None = None,
) -> AlignmentResult:
    """Sampling-rate-independent similarity of two tracks.

    Both tracks are resampled to a common spacing (default: match_epsilon)
    before alignment, so a densely logged track and a sparse ground truth
    score on geometry rather than on point counts.
    """
    spacing = match_epsilon if spacing_m is None else spacing_m
    return nw_align(resample_track(a, spacing), resample_track(b, spacing), match_epsilon)


def comparison_csv_row(track_id: str, track: Track, result: AlignmentResult) -> str:
    """One experiment-sheet row: track id, length in km, accuracy."""
    return f"{track_id},{track.length_m / 1000.0:.3f},{result.accuracy:.4f}"
