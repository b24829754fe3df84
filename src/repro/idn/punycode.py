"""Punycode — RFC 3492 Bootstring encoding for IDNA.

IDN labels travel on the wire as ASCII "A-labels": the Unicode label is
encoded with the Bootstring algorithm using the Punycode parameters and
prefixed with ``xn--``.  This module implements the encoder and decoder
from scratch (including the bias adaptation function and overflow checks),
independent of Python's built-in ``punycode`` codec, which the test suite
uses as a cross-check.
"""

from __future__ import annotations

__all__ = ["encode", "decode", "PunycodeError", "MAX_DECODE_LENGTH"]

# Bootstring parameters for Punycode (RFC 3492 section 5).
_BASE = 36
_TMIN = 1
_TMAX = 26
_SKEW = 38
_DAMP = 700
_INITIAL_BIAS = 72
_INITIAL_N = 0x80
_DELIMITER = "-"
_MAXINT = 0x7FFFFFFF
#: Largest delta :func:`_adapt` leaves undivided, ``((base - tmin) * tmax) // 2``.
_ADAPT_LIMIT = ((_BASE - _TMIN) * _TMAX) // 2
#: Value of every digit code point; extended-part digits are case-insensitive.
_DIGIT_VALUES = {
    ch: value
    for digits in ("abcdefghijklmnopqrstuvwxyz0123456789", "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    for value, ch in enumerate(digits)
}

#: Default input-length cap for :func:`decode`.  Decoding is quadratic in
#: the number of deltas (every delta is an ``insert`` into the output), so a
#: crafted input of a few hundred kilobytes can stall a process for minutes.
#: Real IDNA labels are at most 63 octets; the cap is generous enough for
#: any sane non-IDNA use while keeping the worst case in the milliseconds.
MAX_DECODE_LENGTH = 4096


class PunycodeError(ValueError):
    """Raised when a string cannot be Punycode-encoded or decoded."""


def _encode_digit(digit: int) -> str:
    """Map a digit in ``[0, 35]`` to its code point (a-z, 0-9)."""
    if digit < 26:
        return chr(ord("a") + digit)
    if digit < 36:
        return chr(ord("0") + digit - 26)
    raise PunycodeError(f"digit out of range: {digit}")


def _adapt(delta: int, num_points: int, first_time: bool) -> int:
    """Bias adaptation function (RFC 3492 section 6.1)."""
    delta = delta // _DAMP if first_time else delta // 2
    delta += delta // num_points
    k = 0
    while delta > _ADAPT_LIMIT:
        delta //= _BASE - _TMIN
        k += _BASE
    return k + (((_BASE - _TMIN + 1) * delta) // (delta + _SKEW))


def encode(text: str) -> str:
    """Encode a Unicode string into its Punycode form (without ``xn--``).

    Follows RFC 3492 section 6.3.  Pure-ASCII input is returned with a
    trailing delimiter-less copy (the basic code points plus an empty
    extended part), matching the reference algorithm.
    """
    codepoints = [ord(ch) for ch in text]
    for cp in codepoints:
        if 0xD800 <= cp <= 0xDFFF:
            # A lone surrogate would encode "successfully" into a string the
            # decoder (and any RFC-conforming one) must then reject.
            raise PunycodeError(f"surrogate code point U+{cp:04X} cannot be encoded")
        if cp < 0x20:
            # Symmetric with decode(): a C0 control would land verbatim in
            # the basic part, producing output our own decoder rejects.
            raise PunycodeError(f"control character cannot be encoded: {chr(cp)!r}")
    basic = [cp for cp in codepoints if cp < 0x80]
    output = [chr(cp) for cp in basic]

    handled = len(basic)
    if handled > 0:
        output.append(_DELIMITER)

    n = _INITIAL_N
    delta = 0
    bias = _INITIAL_BIAS

    while handled < len(codepoints):
        candidates = [cp for cp in codepoints if cp >= n]
        if not candidates:
            raise PunycodeError("no code point to encode")
        m = min(candidates)
        if (m - n) > (_MAXINT - delta) // (handled + 1):
            raise PunycodeError("overflow during encoding")
        delta += (m - n) * (handled + 1)
        n = m
        for cp in codepoints:
            if cp < n:
                delta += 1
                if delta > _MAXINT:
                    raise PunycodeError("overflow during encoding")
            elif cp == n:
                q = delta
                k = _BASE
                while True:
                    if k <= bias:
                        threshold = _TMIN
                    elif k >= bias + _TMAX:
                        threshold = _TMAX
                    else:
                        threshold = k - bias
                    if q < threshold:
                        break
                    output.append(_encode_digit(threshold + ((q - threshold) % (_BASE - threshold))))
                    q = (q - threshold) // (_BASE - threshold)
                    k += _BASE
                output.append(_encode_digit(q))
                bias = _adapt(delta, handled + 1, handled == len(basic))
                delta = 0
                handled += 1
        delta += 1
        n += 1

    return "".join(output)


def decode(text: str, *, max_length: int | None = MAX_DECODE_LENGTH) -> str:
    """Decode a Punycode string (without ``xn--``) back into Unicode.

    Follows RFC 3492 section 6.2 with the overflow checks the RFC requires.
    Extended-part digits are case-insensitive (``TSTA8290BFZD`` decodes the
    same as ``tsta8290bfzd``); the case of basic code points is preserved.

    Inputs longer than *max_length* are rejected: the insertion sort at the
    heart of Bootstring makes decoding quadratic, so unbounded attacker-
    controlled input is a denial-of-service vector (pass ``max_length=None``
    to lift the cap).  C0 control characters are rejected outright — they
    are never valid extended digits and a basic part containing them is
    junk, not a label.
    """
    if max_length is not None and len(text) > max_length:
        raise PunycodeError(
            f"Punycode input of {len(text)} characters exceeds the {max_length}-character cap"
        )
    if not text.isascii() or (text and min(text) < " "):
        bad = next(ch for ch in text if not " " <= ch < "\x80")
        kind = "non-ASCII" if bad >= "\x80" else "control"
        raise PunycodeError(f"{kind} character in Punycode input: {bad!r}")

    basic, _, extended = text.rpartition(_DELIMITER)
    output = list(basic)
    n = _INITIAL_N
    index = 0
    bias = _INITIAL_BIAS

    # Python ints do not wrap, so each RFC overflow test ("would x exceed
    # maxint?") is made after the arithmetic instead of by division.
    position = 0
    end = len(extended)
    while position < end:
        old_index = index
        weight = 1
        k = _BASE
        while True:
            if position >= end:
                raise PunycodeError("truncated Punycode input")
            digit = _DIGIT_VALUES.get(extended[position])
            if digit is None:
                raise PunycodeError(f"invalid Punycode digit: {extended[position]!r}")
            position += 1
            index += digit * weight
            if index > _MAXINT:
                raise PunycodeError("overflow during decoding")
            threshold = k - bias
            if threshold < _TMIN:
                threshold = _TMIN
            elif threshold > _TMAX:
                threshold = _TMAX
            if digit < threshold:
                break
            weight *= _BASE - threshold
            if weight > _MAXINT:
                raise PunycodeError("overflow during decoding")
            k += _BASE
        size = len(output) + 1
        bias = _adapt(index - old_index, size, old_index == 0)
        step, index = divmod(index, size)
        n += step
        if n > _MAXINT:
            raise PunycodeError("overflow during decoding")
        if n > 0x10FFFF or 0xD800 <= n <= 0xDFFF:
            raise PunycodeError(f"decoded code point out of range: {n:#x}")
        output.insert(index, chr(n))
        index += 1

    return "".join(output)
