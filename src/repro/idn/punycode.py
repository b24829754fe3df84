"""Punycode — RFC 3492 Bootstring encoding for IDNA.

IDN labels travel on the wire as ASCII "A-labels": the Unicode label is
encoded with the Bootstring algorithm using the Punycode parameters and
prefixed with ``xn--``.  This module implements the encoder and decoder
from scratch (including the bias adaptation function and overflow checks),
independent of Python's built-in ``punycode`` codec, which the test suite
uses as a cross-check.
"""

from __future__ import annotations

import numpy as np

__all__ = ["encode", "decode", "decode_batch", "PunycodeError", "MAX_DECODE_LENGTH",
           "MAX_BATCH_PAYLOAD"]

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

#: Digit value of every ASCII code point for :func:`decode_batch` (-1: not a digit).
_DIGIT_TABLE = np.full(0x80, -1, dtype=np.int64)
_DIGIT_TABLE[list(map(ord, _DIGIT_VALUES))] = list(_DIGIT_VALUES.values())

#: ``_adapt``'s loop as a table: a delta below ``_ADAPT_STEPS[j]`` but not
#: below ``_ADAPT_STEPS[j - 1]`` is divided by ``_ADAPT_DIVISORS[j]``, and
#: ``j`` base steps are added to the bias.  The last entry exceeds any
#: delta a 59-digit payload can reach.
_ADAPT_DIVISORS = (_BASE - _TMIN) ** np.arange(10, dtype=np.int64)
_ADAPT_STEPS = (_ADAPT_LIMIT + 1) * _ADAPT_DIVISORS

#: Longest payload :func:`decode_batch` decodes: a 63-octet A-label less
#: its ``xn--`` prefix.  Longer rows are flagged.
MAX_BATCH_PAYLOAD = 59

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


def decode_batch(
    codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode many Punycode strings at once: the vectorized :func:`decode`.

    The inputs are packed code points: row *r* is
    ``codes[starts[r]:starts[r] + lengths[r]]``.  Returns ``(codes,
    starts, lengths, ok)`` of the decoded rows, packed the same way.
    Where ``ok[r]`` is True, row *r* is exactly what :func:`decode`
    returns for it.  Where it is False the row is empty and *flagged*:
    :func:`decode` raises for it, its decode is pure ASCII (the extended
    part is empty, which no A-label allows), or it is longer than
    :data:`MAX_BATCH_PAYLOAD`.

    Bootstring is sequential within a string, so the rows advance in
    lockstep instead: step *t* reads the *t*-th extended digit of every
    row that has one, with the rows sorted longest-first so that the live
    rows are always a prefix of the state arrays.  Only the rows whose
    delta a step finishes divide, adapt the bias and record an ``(index,
    code point)`` insertion.  Afterwards every insertion's final column
    follows from the insertions made after it, and each row is laid out
    once in a fixed-width buffer.
    """
    rows = len(lengths)
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    row_of = np.repeat(np.arange(rows), lengths)
    offset = np.arange(codes.size, dtype=np.int64) - np.repeat(starts, lengths)

    # The delimiter is the last "-": the basic part precedes it, the
    # extended part follows it (all of the row when there is none).
    last_hyphen = np.full(rows, -1, dtype=np.int64)
    nonempty = lengths > 0
    if codes.size:
        last_hyphen[nonempty] = np.maximum.reduceat(
            np.where(codes == 0x2D, offset, -1), starts[nonempty])
    basic_len = np.maximum(last_hyphen, 0)
    extended_from = last_hyphen + 1
    extended_len = lengths - extended_from
    digit = _DIGIT_TABLE[np.minimum(codes, 0x7F)]
    in_extended = offset >= extended_from[row_of]
    junk = (codes < 0x20) | (codes >= 0x80) | (in_extended & (digit < 0))
    ok = ((extended_len > 0) & (lengths <= MAX_BATCH_PAYLOAD)
          & (np.bincount(row_of[junk], minlength=rows) == 0))

    live = np.flatnonzero(ok)
    live = live[np.argsort(-extended_len[live], kind="stable")]
    count = live.size
    rank = np.zeros(rows, dtype=np.int64)
    rank[live] = np.arange(count)
    steps = int(extended_len[live[0]]) if count else 0
    digits = np.zeros((steps, count), dtype=np.int64)
    take = in_extended & ok[row_of]
    digits[(offset - extended_from[row_of])[take], rank[row_of[take]]] = digit[take]

    # Decoder state per live row (RFC 3492 section 6.2), with k - bias
    # kept as one number.  Only the weight is saturated, which keeps the
    # index far inside int64 even on a flagged row.  The RFC's overflow
    # tests need no pass of their own here: a delta whose index passes
    # maxint inserts a code point past 0x10FFFF (the output holds at most
    # 59 code points), and so does one whose weight passes maxint, which
    # takes six digits after which the index exceeds maxint / 35 — unless
    # 55 code points precede it, more than 59 characters can hold with
    # those digits.  Code points past 0x10FFFF, and surrogates, are found
    # in one pass at the end; a truncated row ends with a weight above 1.
    index = np.zeros(count, dtype=np.int64)
    old_index = np.zeros(count, dtype=np.int64)
    weight = np.ones(count, dtype=np.int64)
    k_less_bias = np.full(count, _BASE - _INITIAL_BIAS, dtype=np.int64)
    n = np.full(count, _INITIAL_N, dtype=np.int64)
    basic = basic_len[live]
    # Unused slots hold a column past every row (a row decodes to at most
    # 59 code points), so no insertion is counted before them.
    inserted_at = np.full((steps, count), MAX_BATCH_PAYLOAD, dtype=np.int64)
    inserted = np.zeros((steps, count), dtype=np.int64)
    insertions = np.zeros(count, dtype=np.int64)
    alive = np.searchsorted(-extended_len[live], -np.arange(steps), side="left")
    for step, a in enumerate(alive.tolist()):
        d = digits[step, :a]
        index[:a] += d * weight[:a]
        threshold = np.minimum(np.maximum(k_less_bias[:a], _TMIN), _TMAX)
        weight[:a] = np.minimum(weight[:a] * (_BASE - threshold), _MAXINT + 1)
        k_less_bias[:a] += _BASE
        finished = np.flatnonzero(d < threshold)
        i = index[finished]
        slot = insertions[finished]
        new_size = basic[finished] + slot + 1
        step_n, position = np.divmod(i, new_size)
        # _adapt(i - old index, new_size, first insertion), table-driven.
        delta = (i - old_index[finished]) // np.where(slot, 2, _DAMP)
        delta += delta // new_size
        divisions = np.searchsorted(_ADAPT_STEPS, delta, side="right")
        delta //= _ADAPT_DIVISORS[divisions]
        k_less_bias[finished] = _BASE - _BASE * divisions - (
            (_BASE - _TMIN + 1) * delta) // (delta + _SKEW)
        new_n = n[finished] + step_n
        inserted_at[slot, finished] = position
        inserted[slot, finished] = new_n
        insertions[finished] = slot + 1
        n[finished] = new_n
        position += 1
        index[finished] = position
        old_index[finished] = position
        weight[finished] = 1
    size = basic + insertions
    events = int(insertions.max()) if count else 0
    inserted, inserted_at = inserted[:events], inserted_at[:events]
    bad = (weight != 1) | (      # weight != 1: the input ended inside a delta
        (inserted > 0x10FFFF) | ((inserted >= 0xD800) & (inserted <= 0xDFFF))).any(axis=0)
    # Replay: an insertion ends one column right of where it was made for
    # every later insertion at or before it.  The inserted code points are
    # scattered to those final columns and the basic code points fill the
    # others in order.
    for later in range(1, events):
        earlier = inserted_at[:later]
        earlier += earlier >= inserted_at[later]
    width = int(size.max()) if count else 0
    columns = np.arange(width)
    buffer = np.zeros((count, width), dtype=np.uint32)
    filled = np.zeros((count, width), dtype=bool)
    made = np.arange(events)[:, None] < insertions
    at = inserted_at[made]
    made_rows = np.nonzero(made)[1]
    buffer[made_rows, at] = inserted[made]
    filled[made_rows, at] = True
    basic_at = (starts[live, None] + columns)[columns < basic[:, None]]
    buffer[~filled & (columns < size[:, None])] = codes[basic_at]

    ok[live[bad]] = False
    out_lengths = np.zeros(rows, dtype=np.int64)
    out_lengths[live] = np.where(bad, 0, size)
    ordered = rank[np.flatnonzero(out_lengths)]
    out_codes = buffer[ordered][columns < out_lengths[out_lengths > 0][:, None]]
    out_starts = np.zeros(rows, dtype=np.int64)
    np.cumsum(out_lengths[:-1], out=out_starts[1:])
    return out_codes, out_starts, out_lengths, ok

