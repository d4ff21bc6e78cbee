import pytest

from canpath.canlog import CanFrame, format_line
from canpath.obd import (
    encode_speed_request,
    encode_speed_response,
    response_speed_kmh,
)


def test_request_payload_is_standard():
    frame = encode_speed_request()
    assert frame.id == 0x7DF
    assert frame.data == bytes([0x02, 0x01, 0x0D, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA])


def test_request_serializes_to_standard_line():
    assert format_line(encode_speed_request()).endswith("7DF#02010DAAAAAAAAAA")


def test_own_request_is_not_a_response():
    request = encode_speed_request()
    assert response_speed_kmh(request.id, request.data) is None


def test_decode_33_kmh():
    frame = CanFrame(3.0, "can0", 0x7E8, bytes([0x03, 0x41, 0x0D, 0x21, 0xAA, 0xAA, 0xAA, 0xAA]))
    assert response_speed_kmh(frame.id, frame.data) == 33


def test_decode_zero_speed():
    frame = CanFrame(0.0, "can0", 0x7E8, bytes([0x03, 0x41, 0x0D, 0x00, 0xAA, 0xAA, 0xAA, 0xAA]))
    assert response_speed_kmh(frame.id, frame.data) == 0


def test_wrong_id_is_not_a_response():
    frame = CanFrame(0.0, "can0", 0x0C6, bytes([0x7D, 0xC8]))
    assert response_speed_kmh(frame.id, frame.data) is None


@pytest.mark.parametrize("responder", range(0x7E8, 0x7F0))
def test_all_responder_ids_accepted(responder):
    frame = CanFrame(0.0, "can0", responder, bytes([0x03, 0x41, 0x0D, 0x55]))
    assert response_speed_kmh(frame.id, frame.data) == 0x55


@pytest.mark.parametrize(
    "data",
    [
        bytes([0x03, 0x41, 0x0D]),  # too short
        bytes([0x03, 0x01, 0x0D, 0x21]),  # mode echo missing
        bytes([0x03, 0x41, 0x0C, 0x21]),  # wrong PID (engine RPM)
    ],
)
def test_shape_check_failures_are_not_errors(data):
    frame = CanFrame(0.0, "can0", 0x7E8, data)
    assert response_speed_kmh(frame.id, frame.data) is None


def test_every_byte_value_roundtrips():
    for value in range(256):
        frame = encode_speed_response(value, timestamp=float(value))
        assert response_speed_kmh(frame.id, frame.data) == value


def test_encode_response_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_speed_response(256)
