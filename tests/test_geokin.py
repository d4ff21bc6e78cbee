import math

import pytest
from hypothesis import example, given, strategies as st

from canpath.geokin import (
    EARTH_RADIUS_M,
    VehiclePose,
    VehicleSpec,
    angular_speed,
    cumulative_lengths,
    geodesic_forward,
    geodesic_inverse,
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


def test_vehicle_spec_validation():
    with pytest.raises(ValueError):
        VehicleSpec(wheelbase=0.0)
