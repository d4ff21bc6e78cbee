import pytest
from hypothesis import given, strategies as st

from canpath.canlog import CanFrame
from canpath.inference import ANGLE, decode_signals
from canpath.reveng import (
    AngleDecoder,
    AngleEncodeError,
    IdChangeStats,
    TWOS_COMPLEMENT_MODE,
    bit_hamming,
    compute_change_stats,
    encode_angle,
    encode_angle_frame,
    lookup_vehicle,
    parse_decoder_sheet,
    payload_angle,
    rank_swa_candidates,
)

DECODER = AngleDecoder(id=0x0C6, byte_hi=0, byte_lo=1, offset=0x7FFF, scale=0.01)


def frames_for(frame_id, words):
    return [
        CanFrame(float(i), "can0", frame_id, bytes([w >> 8, w & 0xFF]))
        for i, w in enumerate(words)
    ]


# -- hamming statistics -----------------------------------------------------------


def test_avg_hamming_hand_counted():
    # 0x7FFF -> 0x7FFE flips one bit; 0x7FFE -> 0x7FFD flips two
    stats = compute_change_stats(frames_for(0x0C6, [0x7FFF, 0x7FFE, 0x7FFD]))
    assert stats[0].avg_hamming == pytest.approx(1.5)
    # 0x7FFE -> 0x7FFC flips only bit 1, so this sequence averages 1.0
    stats = compute_change_stats(frames_for(0x0C6, [0x7FFF, 0x7FFE, 0x7FFC]))
    assert stats[0].avg_hamming == pytest.approx(1.0)


def test_single_frame_has_zero_hamming():
    stats = compute_change_stats(frames_for(0x0C6, [0x7FFF]))
    assert stats == [
        IdChangeStats(id=0x0C6, frame_count=1, avg_hamming=0.0, per_byte_change_rate=(0.0,) * 8)
    ]


def test_identical_payloads_average_zero():
    stats = compute_change_stats(frames_for(0x0C6, [0x7FFF, 0x7FFF]))
    assert stats[0].avg_hamming == 0.0


def test_length_change_counts_extra_bits():
    frames = [
        CanFrame(0.0, "can0", 0x100, bytes([0xFF])),
        CanFrame(1.0, "can0", 0x100, bytes([0xFF, 0x00])),
    ]
    assert compute_change_stats(frames)[0].avg_hamming == 8.0


def test_per_byte_change_rates_locate_the_moving_bytes():
    words = [0x7FFF, 0x7FFE, 0x7FFD, 0x7FFC]
    frames = [
        CanFrame(float(i), "can0", 0x0C6, bytes([w >> 8, w & 0xFF, 0x42, 0x42]))
        for i, w in enumerate(words)
    ]
    rates = compute_change_stats(frames)[0].per_byte_change_rate
    assert rates[0] == 0.0  # high byte constant here
    assert rates[1] == 1.0  # low byte changes every pair
    assert rates[2] == rates[3] == 0.0


@given(st.binary(min_size=0, max_size=8), st.binary(min_size=0, max_size=8), st.binary(min_size=0, max_size=8))
def test_bit_hamming_is_a_metric(a, b, c):
    assert bit_hamming(a, a) == 0
    assert bit_hamming(a, b) == bit_hamming(b, a)
    assert bit_hamming(a, c) <= bit_hamming(a, b) + bit_hamming(b, c)


# -- candidate ranking -------------------------------------------------------------


def _stats(frame_id, avg):
    return IdChangeStats(id=frame_id, frame_count=10, avg_hamming=avg, per_byte_change_rate=(0.0,) * 8)


def test_ranking_keeps_low_ids_and_orders_by_smoothness():
    ranked = rank_swa_candidates([_stats(0x0C6, 1.5), _stats(0x2F5, 6.0), _stats(0x7E8, 2.0)])
    assert [s.id for s in ranked] == [0x0C6, 0x2F5]


def test_ranking_drops_never_changing_ids():
    assert rank_swa_candidates([_stats(0x0C6, 0.0)]) == []


def test_ranking_empty():
    assert rank_swa_candidates([]) == []


def test_ranking_ties_broken_by_id():
    ranked = rank_swa_candidates([_stats(0x200, 2.0), _stats(0x100, 2.0)])
    assert [s.id for s in ranked] == [0x100, 0x200]


def test_ranking_respects_custom_ceiling():
    ranked = rank_swa_candidates([_stats(0x2F5, 1.0)], id_ceiling=0x200)
    assert ranked == []


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=0x7FF),
            st.floats(min_value=0.0, max_value=64.0),
        ),
        max_size=20,
    ),
    st.integers(min_value=0, max_value=0x7FF),
)
def test_ranking_invariants(entries, ceiling):
    stats = [_stats(frame_id, avg) for frame_id, avg in entries]
    ranked = rank_swa_candidates(stats, id_ceiling=ceiling)
    assert all(s.id < ceiling and s.avg_hamming > 0 for s in ranked)
    hams = [s.avg_hamming for s in ranked]
    assert hams == sorted(hams)


# -- angle decode / encode -----------------------------------------------------------


def test_decode_known_word_bit_exact():
    assert payload_angle(DECODER, bytes([0x7D, 0xC8])) == -5.67


def test_decode_offset_word_is_straight():
    assert payload_angle(DECODER, bytes([0x7F, 0xFF])) == 0.0


def test_decode_twos_complement():
    decoder = AngleDecoder(id=0x0C6, mode=TWOS_COMPLEMENT_MODE, scale=0.01)
    assert payload_angle(decoder, bytes([0xFF, 0xFF])) == -0.01


def test_decode_short_payload_fails():
    assert payload_angle(DECODER, bytes([0x7D])) is None
    assert payload_angle(AngleDecoder(id=0x0C6, byte_hi=7, byte_lo=0), bytes(7)) is None


def test_decode_id_mismatch_fails():
    # another ID's payload is never read as an angle, however well it decodes
    frames = [CanFrame(0.0, "can0", 0x2F5, bytes([0x7D, 0xC8])), CanFrame(0.1, "can0", 0x0C6, bytes([0x7D, 0xC8]))]
    assert list(decode_signals(frames, DECODER)) == [(0.1, ANGLE, -5.67)]


def test_encode_known_angle():
    assert encode_angle(DECODER, -5.67) == 0x7DC8


def test_encode_zero_is_offset():
    assert encode_angle(DECODER, 0.0) == 0x7FFF


def test_encode_out_of_range():
    with pytest.raises(AngleEncodeError):
        encode_angle(DECODER, 400.0)
    signed = AngleDecoder(id=0x0C6, mode=TWOS_COMPLEMENT_MODE, scale=0.01)
    with pytest.raises(AngleEncodeError):
        encode_angle(signed, 400.0)


@pytest.mark.parametrize(
    "decoder",
    [DECODER, AngleDecoder(id=0x0C6, mode=TWOS_COMPLEMENT_MODE, scale=0.01)],
    ids=["offset", "twos-complement"],
)
def test_roundtrip_sweep_within_one_step(decoder):
    # exhaustive sweep -50..+50 degrees in 0.01-degree steps
    for hundredths in range(-5000, 5001):
        angle = hundredths / 100.0
        word = encode_angle(decoder, angle)
        assert abs(payload_angle(decoder, bytes([word >> 8, word & 0xFF])) - angle) <= decoder.scale


def test_angle_frame_places_word_and_fill():
    decoder = AngleDecoder(id=0x0C6, byte_hi=2, byte_lo=5)
    frame = encode_angle_frame(decoder, 1.0, -5.67)
    assert frame.data[2] == 0x7D and frame.data[5] == 0xC8
    assert frame.data[0] == frame.data[1] == 0xAA
    assert payload_angle(decoder, frame.data) == -5.67


# -- shipped decoder sheet ------------------------------------------------------------


def test_lookup_known_models():
    assert lookup_vehicle("Renault Captur").decoder.id == 0x0C6
    assert lookup_vehicle("Opel Crossland").decoder.id == 0x2F5
    assert lookup_vehicle("Dacia Duster").decoder.id == 0x0C6
    assert lookup_vehicle("Peugeot 5008").decoder.id == 0x2EB
    assert lookup_vehicle("Renault Captur").wheelbase == 2.606


def test_lookup_tolerates_spelling_variants():
    assert lookup_vehicle("renault capture").decoder.id == 0x0C6
    assert lookup_vehicle("PEUGEOUT 5008").decoder.id == 0x2EB


def test_lookup_unknown_model():
    assert lookup_vehicle("DeLorean DMC-12") is None


SHIPPED_SHEET = """canpath-decoders v1
# model, id, byte_hi, byte_lo, offset, scale, mode[, wheelbase_m]
renault captur, 0C6, 0, 1, 7FFF, 0.01, offset, 2.606
dacia duster, 0C6, 0, 1, 7FFF, 0.01, offset, 2.673
opel crossland, 2F5, 0, 1, 7FFF, 0.01, offset, 2.604
peugeot 5008, 2EB, 0, 1, 7FFF, 0.01, offset, 2.84
"""


def test_decoder_sheet_roundtrip():
    from canpath.reveng import KNOWN_VEHICLES

    entries = parse_decoder_sheet(SHIPPED_SHEET)
    assert set(entries) == set(KNOWN_VEHICLES)
    for model, entry in entries.items():
        assert entry.decoder == KNOWN_VEHICLES[model].decoder
        assert entry.wheelbase == KNOWN_VEHICLES[model].wheelbase


def test_decoder_sheet_requires_header():
    with pytest.raises(ValueError, match="canpath-decoders"):
        parse_decoder_sheet("model, 0C6, 0, 1, 7FFF, 0.01, offset\n")


@pytest.mark.parametrize("scale", [float("inf"), float("-inf"), float("nan"), 0.0, -0.01])
def test_decoder_scale_must_be_finite_and_positive(scale):
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        AngleDecoder(id=0x0C6, scale=scale)


def test_decoder_sheet_with_infinite_scale_is_rejected():
    sheet = "canpath-decoders v1\nmy hatchback, 0C6, 0, 1, 7FFF, inf, offset\n"
    with pytest.raises(ValueError, match="scale"):
        parse_decoder_sheet(sheet)


@pytest.mark.parametrize(
    "row,message",
    [
        ("my van, 2F5, 0.5, 1, 7FFF, 0.01, offset", "line 3: byte_hi must be an integer, got '0.5'"),
        ('my van, 2F5, 0, 1, 7FFF, "0.01", offset', "line 3: scale must be a number, got '\"0.01\"'"),
        ("my van, 198.5, 0, 1, 7FFF, 0.01, offset", "line 3: id must be a hex integer, got '198.5'"),
        ("my van, 2F5, 0, 1, 7FFG, 0.01, offset", "line 3: offset must be a hex integer, got '7FFG'"),
        ("my van, 2F5, 0, x, 7FFF, 0.01, offset", "line 3: byte_lo must be an integer, got 'x'"),
        ("my van, 2F5, 0, 1, 7FFF, 0.01, signed", "line 3: mode must be offset or twos-complement, got 'signed'"),
        ("my van, 2F5, 0, 1, 7FFF, 0.01, offset, 2.6m", "line 3: wheelbase must be a number, got '2.6m'"),
    ],
    ids=[
        "byte_hi-float", "scale-string", "id-float", "offset-not-hex", "byte_lo-text", "unknown-mode",
        "wheelbase-unit",
    ],
)
def test_decoder_sheet_bad_field_names_its_line(row, message):
    sheet = f"canpath-decoders v1\n# model, id, byte_hi, byte_lo, offset, scale, mode\n{row}\n"
    with pytest.raises(ValueError) as exc:
        parse_decoder_sheet(sheet)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "row,message",
    [
        ("my van, 800, 0, 1, 7FFF, 0.01, offset", "line 3: identifier 0x800 out of 11-bit range"),
        ("my van, 2F5, 8, 1, 7FFF, 0.01, offset", "line 3: byte indices must be 0-7"),
        ("my van, 2F5, 1, 1, 7FFF, 0.01, offset", "line 3: byte_hi and byte_lo must differ"),
        ("my van, 2F5, 0, 1, 10000, 0.01, offset", "line 3: offset must fit 16 bits"),
        ("my van, 2F5, 0, 1, 7FFF, 0, offset", "line 3: scale must be finite and positive, got 0.0"),
        ("my van, 2F5, 0, 1, 7FFF, 0.01, offset, 0", "line 3: wheelbase must be finite and positive, got 0.0"),
        ("my van, 2F5, 0, 1, 7FFF, 0.01, offset, nan", "line 3: wheelbase must be finite and positive, got nan"),
        ("my van, 2F5, 0, 1, 7FFF, 0.01, offset, -2.6", "line 3: wheelbase must be finite and positive, got -2.6"),
    ],
    ids=["id-range", "byte-index", "same-bytes", "offset-range", "scale-zero", "wheelbase-zero", "wheelbase-nan",
         "wheelbase-negative"],
)
def test_decoder_sheet_bad_value_names_its_line(row, message):
    sheet = f"canpath-decoders v1\n# model, id, byte_hi, byte_lo, offset, scale, mode\n{row}\n"
    with pytest.raises(ValueError) as exc:
        parse_decoder_sheet(sheet)
    assert str(exc.value) == message


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"], ids=ascii)
def test_decoder_sheet_lines_break_only_where_a_text_mode_read_breaks_them(char):
    # a comment holding a character at which str.splitlines breaks is one
    # line, and \r\n and \r each end one line
    sheet = f"canpath-decoders v1\r\n# notes{char}more notes\rmy van, 2F5, 0, 1, 7FFF, 0.01, offset\n"
    assert set(parse_decoder_sheet(sheet)) == {"my van"}
    with pytest.raises(ValueError) as exc:
        parse_decoder_sheet(sheet + "my van, 2F5, 0, x, 7FFF, 0.01, offset\n")
    assert str(exc.value) == "line 4: byte_lo must be an integer, got 'x'"
