"""Reference RFC 3492 Punycode decoder: the per-character textbook form.

``repro.idn.punycode.decode`` is the production decoder; this module is
the straightforward transcription of RFC 3492 section 6.2 it replaced,
kept so a differential test can pin the two to the same outputs and the
same ``PunycodeError`` cases.
"""

from __future__ import annotations

from repro.idn.punycode import MAX_DECODE_LENGTH, PunycodeError

__all__ = ["decode"]

_BASE = 36
_TMIN = 1
_TMAX = 26
_SKEW = 38
_DAMP = 700
_INITIAL_BIAS = 72
_INITIAL_N = 0x80
_DELIMITER = "-"
_MAXINT = 0x7FFFFFFF


def _decode_digit(char: str) -> int:
    """Map a digit code point (a-z, A-Z, 0-9) to its value in ``[0, 35]``."""
    cp = ord(char)
    if 0x30 <= cp <= 0x39:  # 0-9
        return cp - 0x30 + 26
    if 0x41 <= cp <= 0x5A:  # A-Z
        return cp - 0x41
    if 0x61 <= cp <= 0x7A:  # a-z
        return cp - 0x61
    raise PunycodeError(f"invalid Punycode digit: {char!r}")


def _adapt(delta: int, num_points: int, first_time: bool) -> int:
    """Bias adaptation function (RFC 3492 section 6.1)."""
    delta = delta // _DAMP if first_time else delta // 2
    delta += delta // num_points
    k = 0
    while delta > ((_BASE - _TMIN) * _TMAX) // 2:
        delta //= _BASE - _TMIN
        k += _BASE
    return k + (((_BASE - _TMIN + 1) * delta) // (delta + _SKEW))


def decode(text: str, *, max_length: int | None = MAX_DECODE_LENGTH) -> str:
    """Decode a Punycode string (without ``xn--``) back into Unicode."""
    if max_length is not None and len(text) > max_length:
        raise PunycodeError(
            f"Punycode input of {len(text)} characters exceeds the {max_length}-character cap"
        )
    for ch in text:
        cp = ord(ch)
        if cp >= 0x80:
            raise PunycodeError(f"non-ASCII character in Punycode input: {ch!r}")
        if cp < 0x20:
            raise PunycodeError(f"control character in Punycode input: {ch!r}")

    delimiter_index = text.rfind(_DELIMITER)
    if delimiter_index >= 0:
        basic = text[:delimiter_index]
        extended = text[delimiter_index + 1:]
    else:
        basic = ""
        extended = text

    output = list(basic)
    n = _INITIAL_N
    index = 0
    bias = _INITIAL_BIAS

    position = 0
    while position < len(extended):
        old_index = index
        weight = 1
        k = _BASE
        while True:
            if position >= len(extended):
                raise PunycodeError("truncated Punycode input")
            digit = _decode_digit(extended[position])
            position += 1
            if digit > (_MAXINT - index) // weight:
                raise PunycodeError("overflow during decoding")
            index += digit * weight
            if k <= bias:
                threshold = _TMIN
            elif k >= bias + _TMAX:
                threshold = _TMAX
            else:
                threshold = k - bias
            if digit < threshold:
                break
            if weight > _MAXINT // (_BASE - threshold):
                raise PunycodeError("overflow during decoding")
            weight *= _BASE - threshold
            k += _BASE
        bias = _adapt(index - old_index, len(output) + 1, old_index == 0)
        if index // (len(output) + 1) > _MAXINT - n:
            raise PunycodeError("overflow during decoding")
        n += index // (len(output) + 1)
        index %= len(output) + 1
        if n > 0x10FFFF or 0xD800 <= n <= 0xDFFF:
            raise PunycodeError(f"decoded code point out of range: {n:#x}")
        output.insert(index, chr(n))
        index += 1

    return "".join(output)
