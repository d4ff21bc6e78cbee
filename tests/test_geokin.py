import math
import random

import pytest
from hypothesis import example, given, strategies as st

from canpath.geokin import (
    EARTH_RADIUS_M,
    VehiclePose,
    VehicleSpec,
    angular_speed,
    column_lengths,
    cumulative_lengths,
    geodesic_distance,
    geodesic_forward,
    geodesic_inverse,
    haversine,
    haversine_point,
    heading_delta,
    point_along,
    polyline_length,
    wrap_bearing,
)


def test_angular_speed_zero_angle():
    assert angular_speed(10.0, 0.0, 2.6) == 0.0


def test_angular_speed_recomputed():
    # independent scalar recomputation of speed * tan(radians(angle)) / wheelbase
    expected = 10.0 * math.tan(math.radians(10.0)) / 2.6
    value = angular_speed(10.0, 10.0, 2.6)
    assert value == expected
    assert value == pytest.approx(0.67819, abs=5e-5)


def test_angular_speed_odd_in_angle():
    assert angular_speed(10.0, -10.0, 2.6) == -angular_speed(10.0, 10.0, 2.6)


def test_heading_delta_zero():
    assert heading_delta(0.0, 0.1) == 0.0


def test_heading_delta_recomputed():
    omega = 0.67819
    expected = math.degrees(math.atan2(math.sin(omega * 0.1), math.cos(omega * 0.1)))
    value = heading_delta(omega, 0.1)
    assert value == expected
    assert value == pytest.approx(3.8855, abs=1e-3)


def test_heading_delta_wraps_full_turn():
    omega = 2.0 * math.pi / 0.1
    assert heading_delta(omega, 0.1) == pytest.approx(0.0, abs=1e-9)


@given(st.floats(min_value=-100, max_value=100), st.floats(min_value=0.01, max_value=2.0))
def test_heading_delta_odd_and_periodic(omega, t):
    assert heading_delta(-omega, t) == pytest.approx(-heading_delta(omega, t), abs=1e-9)
    period = 2.0 * math.pi / t
    assert heading_delta(omega + period, t) == pytest.approx(heading_delta(omega, t), abs=1e-6)


def test_kinematic_step_matches_scalar_recomputation():
    # 100 deterministic pseudo-random (v, delta, L) triples to 1e-9
    import random

    rng = random.Random(20240515)
    for _ in range(100):
        v = rng.uniform(0.0, 40.0)
        delta = rng.uniform(-35.0, 35.0)
        wheelbase = rng.uniform(2.0, 3.5)
        t_window = 0.1
        omega = v * math.tan(math.radians(delta)) / wheelbase
        expected = math.degrees(math.atan2(math.sin(omega * t_window), math.cos(omega * t_window)))
        got = angular_speed(v, delta, wheelbase)
        assert abs(got - omega) <= 1e-9
        assert abs(heading_delta(got, t_window) - expected) <= 1e-9


def test_wrap_bearing_range():
    assert wrap_bearing(360.0) == 0.0
    assert wrap_bearing(-90.0) == 270.0
    assert wrap_bearing(725.0) == pytest.approx(5.0)


@given(st.floats(min_value=-1e4, max_value=1e4), st.integers(min_value=-5, max_value=5))
@example(-4.925e-14, 2)  # wraps to 359.99999999999994; plus 720 it wraps to 0.0
def test_wrap_bearing_mod_360_identity(deg, k):
    wrapped = wrap_bearing(deg)
    assert 0.0 <= wrapped < 360.0
    # bearings are equal on the circle, not on the line
    diff = abs(wrap_bearing(deg + 360.0 * k) - wrapped)
    assert min(diff, 360.0 - diff) <= 1e-6


def test_forward_zero_distance():
    assert geodesic_forward((45.0, 11.0), 37.0, 0.0) == (45.0, 11.0)


def test_forward_north_1km():
    lat, lon = geodesic_forward((45.0, 11.0), 0.0, 1000.0)
    # independent oracle: 1000 m of latitude is 1000/(R*pi/180) degrees
    expected_lat = 45.0 + 1000.0 / (EARTH_RADIUS_M * math.pi / 180.0)
    assert lat == pytest.approx(expected_lat, abs=1e-6)
    assert lat == pytest.approx(45.0089932, abs=1e-6)
    assert lon == pytest.approx(11.0, abs=1e-9)


def test_forward_then_inverse_consistent():
    dest = geodesic_forward((45.0, 11.0), 0.0, 1000.0)
    distance, bearing = geodesic_inverse((45.0, 11.0), dest)
    assert distance == pytest.approx(1000.0, rel=1e-6)
    assert bearing == pytest.approx(0.0, abs=1e-6)


@given(
    lat=st.floats(min_value=-60, max_value=60),
    lon=st.floats(min_value=-179, max_value=179),
    bearing=st.floats(min_value=0, max_value=359.99),
    distance=st.floats(min_value=0.1, max_value=10_000),
)
def test_forward_inverse_roundtrip(lat, lon, bearing, distance):
    dest = geodesic_forward((lat, lon), bearing, distance)
    back_distance, back_bearing = geodesic_inverse((lat, lon), dest)
    assert back_distance == pytest.approx(distance, rel=1e-6)
    diff = abs(back_bearing - bearing)
    assert min(diff, 360.0 - diff) < 1e-4


def test_inverse_degenerate():
    assert geodesic_inverse((45.0, 11.0), (45.0, 11.0)) == (0.0, 0.0)


def test_inverse_symmetric_distance():
    a, b = (45.0, 11.0), (45.3, 11.4)
    assert geodesic_inverse(a, b)[0] == pytest.approx(geodesic_inverse(b, a)[0], rel=1e-12)


def _reference_inverse(a, b):
    # geodesic_inverse as it was before the haversine kernel, kept verbatim
    if a == b:
        return (0.0, 0.0)
    phi1 = math.radians(a[0])
    phi2 = math.radians(b[0])
    dphi = phi2 - phi1
    dlam = math.radians(b[1] - a[1])
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    distance = 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))
    if distance == 0.0:
        return (0.0, 0.0)
    bearing = math.atan2(
        math.sin(dlam) * math.cos(phi2),
        math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam),
    )
    return (distance, wrap_bearing(math.degrees(bearing)))


def _reference_cumulative_lengths(points):
    # cumulative_lengths as it was before the haversine kernel
    cum = [0.0]
    for i in range(len(points) - 1):
        cum.append(cum[-1] + _reference_inverse(points[i], points[i + 1])[0])
    return cum


def _bits(values):
    # float.hex tells -0.0 from 0.0, which == does not
    return [v.hex() for v in values]


def _reference_pairs(rng, n):
    """n seeded point pairs: random anywhere, coincident, signed zeros,
    sub-millimetre steps, steps over 1,000 km, near the poles and across
    the antimeridian."""
    zeros = (0.0, -0.0)
    pairs = []
    while len(pairs) < n:
        lat, lon = rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)
        kind = len(pairs) % 7
        if kind == 0:  # anywhere: most such pairs are over 1,000 km apart
            b = (rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))
        elif kind == 1:  # coincident, or signed zeros in either coordinate
            lat, lon = rng.choice((lat, *zeros)), rng.choice((lon, *zeros))
            b = (rng.choice(zeros) if lat == 0.0 else lat, rng.choice(zeros) if lon == 0.0 else lon)
        elif kind == 2:  # sub-millimetre steps (1e-8 degrees is about 1 mm)
            lat = max(-89.0, min(89.0, lat))
            b = (lat + rng.uniform(-1e-8, 1e-8), lon + rng.uniform(-1e-8, 1e-8))
        elif kind == 3:  # road-scale steps up to about 100 m
            lat = max(-89.0, min(89.0, lat))
            b = (lat + rng.uniform(-1e-3, 1e-3), lon + rng.uniform(-1e-3, 1e-3))
        elif kind == 4:  # near and on the poles
            lat = rng.choice((1.0, -1.0)) * rng.choice((90.0, 90.0 - rng.uniform(0.0, 0.01)))
            b = (math.copysign(90.0 - rng.uniform(0.0, 0.01), lat), rng.uniform(-180.0, 180.0))
        elif kind == 5:  # across the antimeridian
            lon = rng.choice((180.0, -180.0, 180.0 - rng.uniform(0.0, 1e-3)))
            b = (lat + rng.uniform(-1e-3, 1e-3), -180.0 + rng.uniform(0.0, 1e-3))
            b = (max(-90.0, min(90.0, b[0])), b[1])
        else:  # over 1,000 km along one parallel or meridian
            b = rng.choice(((lat, rng.uniform(-180.0, 180.0)), (rng.uniform(-90.0, 90.0), lon)))
        pair = ((lat, lon), b)
        pairs.append(pair if rng.random() < 0.5 else pair[::-1])
    return pairs


def test_distance_kernel_is_bit_identical_to_the_reference():
    pairs = _reference_pairs(random.Random(20261019), 42_000)
    want = [_reference_inverse(a, b) for a, b in pairs]
    got = [geodesic_inverse(a, b) for a, b in pairs]
    assert _bits(d for d, _ in got) == _bits(d for d, _ in want)
    assert _bits(b for _, b in got) == _bits(b for _, b in want)
    assert _bits(geodesic_distance(a, b) for a, b in pairs) == _bits(d for d, _ in want)
    assert _bits(haversine(haversine_point(a), haversine_point(b)) for a, b in pairs) == _bits(d for d, _ in want)
    # the cases the pairs are meant to hold do occur
    distances = [d for d, _ in want]
    assert sum(d == 0.0 for d in distances) > 1000
    assert sum(0.0 < d < 1e-3 for d in distances) > 1000
    assert sum(d > 1e6 for d in distances) > 5000
    assert any(a[0] == -0.0 and math.copysign(1.0, a[0]) < 0 for a, _ in pairs)


def test_cumulative_lengths_is_bit_identical_to_the_reference():
    rng = random.Random(20261020)
    pairs = _reference_pairs(rng, 42_000)
    # polylines of up to 60 points chained from the pairs, with repeated
    # vertices, so every kind of step occurs between neighbours
    points = [p for pair in pairs for p in pair]
    start = 0
    while start < len(points):
        n = rng.randrange(0, 61)
        line = points[start:start + n]
        if line and rng.random() < 0.2:
            line.insert(rng.randrange(len(line)), rng.choice(line))
        assert _bits(cumulative_lengths(line)) == _bits(_reference_cumulative_lengths(line))
        assert polyline_length(line).hex() == _reference_cumulative_lengths(line)[-1].hex()
        start += max(n, 1)


def test_column_lengths_steps_are_the_haversine_kernel():
    # every step of the inlined loop is haversine on haversine_point, bit for
    # bit, and the sum runs in the same order, whatever holds the columns
    rng = random.Random(20261021)
    points = [p for pair in _reference_pairs(rng, 20_000) for p in pair]
    points.insert(100, points[100])  # a repeated vertex
    want = [0.0]
    for a, b in zip(points, points[1:]):
        want.append(want[-1] + haversine(haversine_point(a), haversine_point(b)))
    lats, lons = [p[0] for p in points], [p[1] for p in points]
    assert _bits(column_lengths(lats, lons)) == _bits(want)
    assert _bits(column_lengths(tuple(lats), tuple(lons))) == _bits(want)
    assert _bits(cumulative_lengths(points)) == _bits(want)
    assert column_lengths([], []) == column_lengths(lats[:1], lons[:1]) == [0.0]


def test_straight_steps_conserve_length():
    # N forward steps of v*t each must cover N*v*t of great-circle length
    step = 10.0 * 0.1
    points = [(45.0, 11.0)]
    for _ in range(1000):
        points.append(geodesic_forward(points[-1], 77.0, step))
    total = polyline_length(points)
    assert total == pytest.approx(1000 * step, rel=1e-3)


def test_cumulative_lengths_and_polyline_length_agree():
    points = [(45.0, 11.0), (45.001, 11.0), (45.001, 11.0), (45.001, 11.002)]
    cum = cumulative_lengths(points)
    assert cum[0] == 0.0 and cum[1] == cum[2]
    assert cum[3] == cum[2] + geodesic_inverse(points[2], points[3])[0]
    assert polyline_length(points) == cum[-1]
    assert cumulative_lengths([]) == cumulative_lengths(points[:1]) == [0.0]
    assert polyline_length([]) == polyline_length(points[:1]) == 0.0


def test_point_along_endpoints_and_clamping():
    # an interior zero-length segment: a distance on that vertex takes the
    # segment that starts at its last copy
    points = [(45.0, 11.0), (45.001, 11.0), (45.001, 11.0), (45.001, 11.002)]
    cum = cumulative_lengths(points)
    assert point_along(points, cum, 0.0) == points[0]
    assert point_along(points, cum, -5.0) == points[0]
    assert point_along(points, cum, cum[-1]) == points[-1]
    assert point_along(points, cum, cum[-1] + 5.0) == points[-1]
    assert point_along(points, cum, cum[1]) == points[2]
    lat, lon = point_along(points, cum, cum[1] / 2)
    assert lat == pytest.approx(45.0005, abs=1e-12) and lon == 11.0
    lat, lon = point_along(points, cum, cum[2] + (cum[3] - cum[2]) / 4)
    assert lat == 45.001 and lon == pytest.approx(11.0005, abs=1e-12)


def test_pose_validation():
    with pytest.raises(ValueError):
        VehiclePose(91.0, 0.0, 0.0)
    assert VehiclePose(45.0, 190.0, 0.0).lon == pytest.approx(-170.0)
    assert VehiclePose(45.0, 0.0, 540.0).bearing == pytest.approx(180.0)


@pytest.mark.parametrize(
    "pose, message",
    [
        ((45.0, math.nan, 0.0), "^longitude nan is not finite$"),
        ((45.0, -math.inf, 0.0), "^longitude -inf is not finite$"),
        ((45.0, 11.0, math.inf), "^bearing inf is not finite$"),
        ((45.0, 11.0, math.nan), "^bearing nan is not finite$"),
        ((math.nan, 11.0, 0.0), "^latitude nan out of range$"),
    ],
)
def test_pose_with_a_non_finite_field_names_it(pose, message):
    with pytest.raises(ValueError, match=message):
        VehiclePose(*pose)


def test_vehicle_spec_validation():
    with pytest.raises(ValueError):
        VehicleSpec(wheelbase=0.0)


@pytest.mark.parametrize("wheelbase", [math.inf, -math.inf, math.nan])
def test_vehicle_spec_rejects_non_finite_wheelbase(wheelbase):
    with pytest.raises(ValueError, match="wheelbase must be finite and positive"):
        VehicleSpec(wheelbase=wheelbase)


@pytest.mark.parametrize("wheelbase", [True, "2.6", None, [2.6]])
def test_vehicle_spec_rejects_a_wheelbase_that_is_not_a_number(wheelbase):
    # a JSON true would otherwise pass as a 1 m wheelbase
    with pytest.raises(ValueError, match="wheelbase must be a number"):
        VehicleSpec(wheelbase=wheelbase)
