"""Tests for the RFC 3492 Punycode implementation (cross-checked against the stdlib codec)."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.reference_punycode import decode as reference_decode
from repro.idn import punycode
from repro.idn.idna_codec import IDNAError, _decode_alabel

# Sample strings from RFC 3492 section 7.1 and the paper.
_KNOWN_CASES = [
    ("bücher", "bcher-kva"),
    ("阿里巴巴", "tsta8290bfzd"),              # paper Section 2.1 example
    ("facébook", "facbook-dya"),               # paper Section 2.2 example
    ("пример", "e1afmkfd"),
    ("münchen", "mnchen-3ya"),
    ("abc", "abc-"),
]


@pytest.mark.parametrize("unicode_text, expected", _KNOWN_CASES)
def test_known_encodings(unicode_text, expected):
    assert punycode.encode(unicode_text) == expected


@pytest.mark.parametrize("unicode_text, expected", _KNOWN_CASES)
def test_known_decodings(unicode_text, expected):
    assert punycode.decode(expected) == unicode_text


@pytest.mark.parametrize(
    "text",
    ["ليهمابتكلموشعربي؟", "他们为什么不说中文", "TạisaohọkhôngthểchỉnóitiếngViệt".lower(),
     "ドメイン名例", "ひとつ屋根の下2", "MajiでKoiする5秒前".lower(), "-> $1.00 <-"],
)
def test_rfc3492_sample_vectors_roundtrip(text):
    encoded = punycode.encode(text)
    assert encoded == text.encode("punycode").decode("ascii")
    assert punycode.decode(encoded) == text


def test_decode_rejects_invalid_input():
    with pytest.raises(punycode.PunycodeError):
        punycode.decode("münchen")            # non-ASCII input
    with pytest.raises(punycode.PunycodeError):
        punycode.decode("abc-!")              # invalid digit
    with pytest.raises(punycode.PunycodeError):
        punycode.decode("999999999999999999") # overflow


def test_decode_truncated_input():
    encoded = punycode.encode("bücher")
    with pytest.raises(punycode.PunycodeError):
        punycode.decode(encoded[:-1] if not encoded.endswith("a") else encoded[:-2] + "k")


def test_pure_ascii_round_trips_with_trailing_delimiter():
    assert punycode.encode("example") == "example-"
    assert punycode.decode("example-") == "example"


@settings(max_examples=200, deadline=None)
@given(st.text(
    alphabet=st.characters(min_codepoint=0x61, max_codepoint=0x2FFF,
                           exclude_categories=("Cs",)),
    min_size=1, max_size=16,
))
def test_roundtrip_matches_stdlib(text):
    encoded = punycode.encode(text)
    assert encoded == text.encode("punycode").decode("ascii")
    assert punycode.decode(encoded) == text


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789üöäßéあ中о", min_size=1, max_size=24))
def test_roundtrip_identity(text):
    assert punycode.decode(punycode.encode(text)) == text


# -- mixed-case ACE input (RFC 3492 digits are case-insensitive) ---------------


@pytest.mark.parametrize("unicode_text, expected", _KNOWN_CASES)
def test_decode_accepts_uppercase_extended_digits(unicode_text, expected):
    # Upper-case only the extended part (after the last delimiter); the
    # basic part is payload whose case the decoder must preserve.
    basic, delimiter, extended = expected.rpartition("-")
    mixed = basic + delimiter + extended.upper()
    assert punycode.decode(mixed) == unicode_text


def test_decode_preserves_basic_code_point_case():
    # The extended digits fold; the basic code points do not.
    assert punycode.decode("Bcher-KVA") == "Bücher"
    assert punycode.decode("BCHER-kva") == "BüCHER"


@settings(max_examples=100, deadline=None)
@given(st.text(
    alphabet=st.characters(min_codepoint=0xE0, max_codepoint=0x2FFF, exclude_categories=("Cs",)),
    min_size=1, max_size=16,
))
def test_decode_is_case_insensitive_on_extended_part(text):
    encoded = punycode.encode(text)
    assert punycode.decode(encoded.upper()) == text
    assert punycode.decode(encoded.swapcase()) == text


# -- adversarial input ---------------------------------------------------------


def test_decode_rejects_oversized_input_instead_of_hanging():
    # Decoding is quadratic in the delta count (insertion sort); a crafted
    # few-hundred-KB payload used to stall for minutes.  The cap turns that
    # into an immediate, typed error.
    with pytest.raises(punycode.PunycodeError, match="cap"):
        punycode.decode("a" * (punycode.MAX_DECODE_LENGTH + 1))


def test_decode_cap_can_be_lifted_or_tightened():
    text = "a" * (punycode.MAX_DECODE_LENGTH + 1)
    assert len(punycode.decode(text, max_length=None)) == len(text)
    with pytest.raises(punycode.PunycodeError):
        punycode.decode("abcd-1ga", max_length=4)


def test_decode_rejects_control_characters():
    for bad in ("\x00abc", "a-b\x01c", "abc\n", "\tabc-def"):
        with pytest.raises(punycode.PunycodeError):
            punycode.decode(bad)


def test_decode_rejects_oversized_deltas_with_typed_errors():
    # Each of these drives a different overflow/range check; all must raise
    # PunycodeError (never a bare ValueError/OverflowError) and terminate
    # promptly.
    for bad in ("99999999", "9" * 64, "zzzz" * 512, "a" * 10 + "9" * 30):
        with pytest.raises(punycode.PunycodeError):
            punycode.decode(bad)


def test_decode_rejects_surrogate_range_output():
    # stdlib's codec happily emits lone surrogates; RFC-valid labels cannot
    # contain them, so our decoder treats them as out-of-range.
    with pytest.raises(punycode.PunycodeError, match="out of range"):
        punycode.decode("-9c0c")


def test_encode_rejects_control_characters():
    # Symmetric with decode(): a C0 control would otherwise encode into a
    # basic part our own decoder rejects.
    for bad in ("a\tb", "line\nbreak", "\x00"):
        with pytest.raises(punycode.PunycodeError, match="control"):
            punycode.encode(bad)


def test_encode_rejects_lone_surrogates():
    # Encoding a surrogate used to "succeed", producing a string the decoder
    # (ours and any RFC-conforming one) must then reject.
    with pytest.raises(punycode.PunycodeError, match="surrogate"):
        punycode.encode("\ud800")
    with pytest.raises(punycode.PunycodeError, match="surrogate"):
        punycode.encode("ok\udfffok")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=32))
def test_decode_arbitrary_printable_ascii_never_raises_bare_exceptions(text):
    # Any printable-ASCII input either decodes or raises PunycodeError —
    # nothing else, and never a hang.
    try:
        punycode.decode(text)
    except punycode.PunycodeError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=32))
def test_decode_arbitrary_bytes_never_raise_bare_exceptions(data):
    text = data.decode("latin-1")
    try:
        punycode.decode(text)
    except punycode.PunycodeError:
        pass


# -- differential check against the reference decoder --------------------------

def _decode_outcome(decoder, text):
    try:
        return decoder(text)
    except punycode.PunycodeError:
        return punycode.PunycodeError


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=40),
    st.binary(max_size=40).map(lambda data: data.decode("latin-1")),
    # Digit-heavy strings reach the delta loop, bias adaptation and the
    # overflow and range checks instead of failing on the first character.
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789ABCXYZ-", max_size=40),
))
def test_decode_matches_reference_decoder(text):
    # Same string out, or PunycodeError from both.
    assert _decode_outcome(punycode.decode, text) == _decode_outcome(reference_decode, text)


@settings(max_examples=200, deadline=None)
@given(st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x2FFF, exclude_categories=("Cs",)),
    min_size=1, max_size=24,
), st.booleans())
def test_decode_of_encoder_output_matches_reference_decoder(text, upper):
    encoded = punycode.encode(text)
    encoded = encoded.upper() if upper else encoded
    assert punycode.decode(encoded) == reference_decode(encoded)


@pytest.mark.parametrize("text", ["a" * 10, "abc-\x01", "\x00é", "é\x00", "zz-!", "-9c0c", "99999999"])
def test_decode_errors_match_reference_decoder_messages(text):
    with pytest.raises(punycode.PunycodeError) as ours:
        punycode.decode(text, max_length=9)
    with pytest.raises(punycode.PunycodeError) as reference:
        reference_decode(text, max_length=9)
    assert str(ours.value) == str(reference.value)


# -- the batch decoder against the scalar ones ---------------------------------

def _decode_rows(payloads):
    """``decode_batch`` over *payloads*: each row's decode, or ``None`` when
    the batch decoder flags it."""
    lengths = np.array([len(p) for p in payloads], dtype=np.int64)
    starts = np.zeros(len(payloads), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    codes = np.frombuffer("".join(payloads).encode("utf-32-le"), dtype="<u4")
    out, out_starts, out_lengths, ok = punycode.decode_batch(codes, starts, lengths)
    assert out.size == int(out_lengths.sum())
    text = out.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
    return [text[start:start + length] if good else None
            for start, length, good in zip(out_starts, out_lengths, ok)]


_NON_ASCII_LABELS = st.text(
    alphabet=st.sampled_from(list("abcxyz09-оаеіüßж日本ア́\U0001F600\U0010FFFD")),
    min_size=1, max_size=30,
).filter(lambda label: not label.isascii())
#: Valid payloads: the encodings of non-ASCII labels (some past 59 chars).
_VALID_PAYLOADS = _NON_ASCII_LABELS.map(punycode.encode)
_PAYLOADS = st.one_of(
    _VALID_PAYLOADS,
    # Truncated deltas: a valid payload with its tail cut.
    st.tuples(_VALID_PAYLOADS, st.integers(1, 4)).map(lambda pair: pair[0][:-pair[1]]),
    # A bad digit ("_" is LDH but no digit) spliced into the extended part.
    st.tuples(_VALID_PAYLOADS, st.integers(0, 60)).map(
        lambda pair: pair[0] + "_" if pair[1] % 2 else pair[0][:pair[1]] + "_" + pair[0][pair[1]:]),
    # Digit soup: overflow past 0x7FFFFFFF, code points past 0x10FFFF or
    # in the surrogate range, truncation.
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", max_size=62),
    st.text(alphabet="9z-", max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PAYLOADS, min_size=1, max_size=40))
@example(["bcher-kva", "abc-", "", "-", "a-", "w", "jv09t", "2u0c", "-9c0c", "99999999",
          "9" * 59, "a" * 55 + "-8yf", "a" * 56 + "-t2f", "ggle-55da"])
def test_decode_batch_matches_scalar_decoders(payloads):
    """Every row is flagged or equals both scalar decodes; a payload the
    A-label check accepts is never flagged."""
    for payload, got in zip(payloads, _decode_rows(payloads)):
        expected = _decode_outcome(punycode.decode, payload)
        assert expected == _decode_outcome(reference_decode, payload)
        if got is not None:
            assert got == expected and not got.isascii(), payload
        lowered = payload.lower()
        if lowered == payload and len(payload) <= punycode.MAX_BATCH_PAYLOAD:
            try:
                _decode_alabel("xn--" + payload)
            except IDNAError:
                continue
            assert got is not None, payload


@settings(max_examples=100, deadline=None)
@given(st.lists(_NON_ASCII_LABELS, min_size=1, max_size=20), st.booleans())
def test_decode_batch_round_trips_encoder_output(labels, upper):
    payloads = [punycode.encode(label) for label in labels]
    payloads = [p.upper() if upper else p for p in payloads]
    for label, payload, got in zip(labels, payloads, _decode_rows(payloads)):
        if len(payload) <= punycode.MAX_BATCH_PAYLOAD:
            assert got == punycode.decode(payload)
            assert upper or got == label
        else:
            assert got is None


def test_decode_batch_of_nothing():
    assert _decode_rows([]) == []
    assert _decode_rows([""]) == [None]


# -- the batch decoder on long insertion runs ----------------------------------

def _scalar_rows(payloads):
    """What :func:`punycode.decode_batch` must return for each payload:
    :func:`punycode.decode`'s result, or ``None`` where that raises, is
    pure ASCII or the payload is longer than ``MAX_BATCH_PAYLOAD``."""
    rows = []
    for payload in payloads:
        got = _decode_outcome(punycode.decode, payload)
        keep = (got is not punycode.PunycodeError and not got.isascii()
                and len(payload) <= punycode.MAX_BATCH_PAYLOAD)
        rows.append(got if keep else None)
    return rows


#: Labels with 20 to 40 non-basic code points behind a short basic part;
#: most encode to at most 59 characters.
_MANY_INSERTIONS = st.tuples(
    st.text(alphabet="abc-", max_size=8),
    st.text(alphabet="üöаоéж日\U0001F600", min_size=20, max_size=40),
).map(lambda parts: punycode.encode(parts[0] + parts[1]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_MANY_INSERTIONS, _PAYLOADS), min_size=1, max_size=30))
def test_decode_batch_equals_decode_on_many_insertions(payloads):
    assert _decode_rows(payloads) == _scalar_rows(payloads)


#: Cyrillic я down to а: spelled in this order, every insertion of a
#: decode lands at column 0; spelled backwards, every one at the end.
_DESCENDING = "".join(map(chr, range(0x44F, 0x42F, -1)))


@pytest.mark.parametrize("basic", ["", "ab", "abc-def"])
@pytest.mark.parametrize("count", [1, 2, 5, 20, 32])
def test_decode_batch_repeated_insertion_at_column_0_and_at_the_end(basic, count):
    front = punycode.encode(_DESCENDING[-count:] + basic)
    back = punycode.encode(basic + _DESCENDING[-count:][::-1])
    payloads = [front, back, front.upper(), back]
    rows = _decode_rows(payloads)
    assert rows == _scalar_rows(payloads)
    assert rows[:2] == [_DESCENDING[-count:] + basic, basic + _DESCENDING[-count:][::-1]]


@pytest.mark.parametrize("tail", ["ü", "日本", "оо", "\U0001F600", "üö"])
def test_decode_batch_at_the_59_character_limit(tail):
    # Payloads of 58, 59 and 60 characters: the last is always flagged.
    encoded = [payload for payload in (punycode.encode("a" * m + tail) for m in range(59))
               if len(payload) in (58, 59, 60)]
    assert {len(payload) for payload in encoded} == {58, 59, 60}
    payloads = encoded + ["a" * 59, "a" * 60, "9" * 59, "z" * 59, "a" * 57 + "-b"]
    rows = _decode_rows(payloads)
    assert rows == _scalar_rows(payloads)
    assert [row is not None for row in rows[:len(encoded)]] == [
        len(payload) <= 59 for payload in encoded]


def test_decode_batch_mixes_every_insertion_count():
    # One batch holds rows of 0 insertions (a pure-ASCII decode, flagged),
    # of 1 to 30, and of 59 ("a" * 59 inserts U+0080 at the end 59 times).
    payloads = ["abc-", "a" * 59] + [punycode.encode("x" + "ü" * k) for k in range(1, 31)]
    payloads += [punycode.encode(_DESCENDING[-k:]) for k in range(1, 31)]
    payloads = payloads[::2] + payloads[1::2][::-1]
    rows = _decode_rows(payloads)
    assert rows == _scalar_rows(payloads)
    assert rows[0] is None
    assert rows[payloads.index("a" * 59)] == "\x80" * 59
    assert sum(row is not None for row in rows) == len(payloads) - 1


# -- the batch decoder's delta window ------------------------------------------

def _delta_lengths(payload):
    """The digit count of each delta of a payload :func:`punycode.decode`
    accepts, read the way the scalar decoder reads them."""
    basic, _, extended = payload.rpartition("-")
    lengths, bias, position = [], punycode._INITIAL_BIAS, 0
    while position < len(extended):
        start, index, weight, k = position, 0, 1, punycode._BASE
        while True:
            digit = punycode._DIGIT_VALUES[extended[position]]
            position += 1
            index += digit * weight
            threshold = min(max(k - bias, punycode._TMIN), punycode._TMAX)
            if digit < threshold:
                break
            weight *= punycode._BASE - threshold
            k += punycode._BASE
        lengths.append(position - start)
        bias = punycode._adapt(index, len(basic) + len(lengths), len(lengths) == 1)
    return lengths


#: Encodings of a basic run followed by two code points from the bottom to
#: the top of the code space: their deltas take every length from one
#: digit to the window's eight.
_LONG_DELTA_PAYLOADS = [
    payload
    for basic in ("", "abc", "a" * 12, "a" * 30, "a" * 44)
    for first, second in itertools.product(
        (0x80, 0xFC, 0x3B1, 0x65E5, 0x1F600, 0xE0100, 0x10FFFD), repeat=2)
    if len(payload := punycode.encode(basic + chr(first) + chr(second)))
    <= punycode.MAX_BATCH_PAYLOAD
]


def test_decode_batch_reads_deltas_of_every_window_length():
    lengths = {length for payload in _LONG_DELTA_PAYLOADS for length in _delta_lengths(payload)}
    assert lengths == set(range(1, punycode._WINDOW + 1))
    rows = _decode_rows(_LONG_DELTA_PAYLOADS)
    assert rows == _scalar_rows(_LONG_DELTA_PAYLOADS)
    assert None not in rows


def test_decode_batch_flags_a_last_delta_cut_at_every_digit():
    # Every cut inside the last delta is a truncated input, which decode
    # rejects; cutting the whole delta leaves a shorter valid payload.
    payloads = []
    for payload in _LONG_DELTA_PAYLOADS:
        last = _delta_lengths(payload)[-1]
        payloads += [payload[:-cut] for cut in range(1, last + 1)]
    rows = _decode_rows(payloads)
    assert rows == _scalar_rows(payloads)
    assert sum(row is None for row in rows) >= len(payloads) - len(_LONG_DELTA_PAYLOADS)


def test_window_holds_every_decodable_delta():
    # A delta of one digit more than the window is at least its value with
    # every digit but the last at its threshold: past any index a row of 59
    # code points can divide into a code point up to 0x10FFFF.
    largest_index = 0x110000 * punycode.MAX_BATCH_PAYLOAD
    for bias in range(punycode._BIASES):
        smallest, weight = 0, 1
        for j in range(punycode._WINDOW):
            threshold = min(max(punycode._BASE * (j + 1) - bias, punycode._TMIN),
                            punycode._TMAX)
            smallest += threshold * weight
            weight *= punycode._BASE - threshold
        assert smallest > largest_index, bias


@pytest.mark.parametrize("payload", [
    "9" * 9 + "a",                  # nine digits without a delta end, then one
    "z" * 9 + "ab",
    "abc-" + "9" * 12 + "a",
    "a" * 30 + "-" + "9" * 8 + "a",   # eight digits that end nothing, then one
    "a" * 30 + "-4a8335740a",       # an eight-digit delta that decodes
])
def test_decode_batch_on_deltas_at_and_past_the_window(payload):
    # Beside rows that decode, so a wrong step would show in their output.
    payloads = [payload, "bcher-kva", payload.upper(), "ggle-55da"]
    rows = _decode_rows(payloads)
    assert rows == _scalar_rows(payloads)
    assert rows[1] == "bücher" and rows[3] == punycode.decode("ggle-55da")


def test_decode_batch_reads_rows_anywhere_in_codes():
    # Rows out of order, with gaps and overlaps, decode as when packed.
    payloads = ["bcher-kva", "", "a" * 30 + "-4a8335740a", "99999999", "ggle-55da", "abc-"]
    text = "??" + "".join(payloads) + "!"
    codes = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    offsets = np.cumsum([2] + [len(p) for p in payloads])
    order = [4, 2, 2, 0, 5, 1, 3]
    out, out_starts, out_lengths, ok = punycode.decode_batch(
        codes, offsets[:-1][order], np.array([len(payloads[i]) for i in order]))
    decoded = out.astype("<u4").tobytes().decode("utf-32-le")
    rows = [decoded[s:s + n] if good else None for s, n, good in zip(out_starts, out_lengths, ok)]
    assert rows == [_decode_rows(payloads)[i] for i in order]
