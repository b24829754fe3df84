"""Punycode — RFC 3492 Bootstring encoding for IDNA.

IDN labels travel on the wire as ASCII "A-labels": the Unicode label is
encoded with the Bootstring algorithm using the Punycode parameters and
prefixed with ``xn--``.  This module implements the encoder and decoder
from scratch (including the bias adaptation function and overflow checks),
independent of Python's built-in ``punycode`` codec, which the test suite
uses as a cross-check.
"""

from __future__ import annotations

from functools import cache

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

#: Longest payload :func:`decode_batch` decodes: a 63-octet A-label less
#: its ``xn--`` prefix.  Longer rows are flagged.
MAX_BATCH_PAYLOAD = 59

#: Longest delta :func:`decode_batch` reads at once, in digits: one
#: little-endian ``uint64`` of digit values.  No longer delta decodes:
#: whatever the bias, its smallest value (every digit but the last at its
#: threshold) steps past 0x10FFFF even with 59 code points to divide it.
_WINDOW = 8
#: Biases the window tables cover: more than any window's delta adapts to.
_BIASES = _BASE * 10


class _WindowTables:
    """The lookup tables of :func:`decode_batch`, built on its first call
    (:func:`_window_tables`), so that importing this module builds none."""

    def __init__(self) -> None:
        #: Per ASCII code point (clipped: 0x80 stands for every non-ASCII
        #: one) its digit value; 36 marks another printable character, 37
        #: one :func:`decode` rejects anywhere.
        self.digits = np.full(0x81, 37, dtype=np.uint8)
        self.digits[0x20:0x80] = 36
        self.digits[list(map(ord, _DIGIT_VALUES))] = list(_DIGIT_VALUES.values())
        thresholds = np.minimum(np.maximum(
            _BASE * np.arange(1, _WINDOW + 1) - np.arange(_BIASES)[:, None], _TMIN), _TMAX)
        #: Per bias, the thresholds ``clamp(base * (j + 1) - bias)`` of a
        #: delta's digits *j* as bytes ``threshold - 1 + 0x80`` of one
        #: ``uint64``: subtracting a window of digits leaves the high bit of
        #: byte *j* set exactly where digit *j* can end the delta.
        self.thresholds = (thresholds + 0x7F).astype(np.uint8).view("<u8").ravel()
        #: ``weights[j, bias]``, the weight of a delta's digit *j*.
        self.weights = np.ones((_WINDOW, _BIASES), dtype=np.int64)
        np.cumprod(_BASE - thresholds.T[:-1], axis=0, out=self.weights[1:])
        #: Per set of delta-ending digits (one bit each), the first one, or
        #: the window's width when there is none.
        self.first_end = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                                       bitorder="little").argmax(axis=1)
        self.first_end[0] = _WINDOW
        #: Per delta end, the mask of the window's bytes up to and including it.
        self.up_to = np.array([(1 << 8 * (j + 1)) - 1 for j in range(_WINDOW)] + [0],
                              dtype=np.uint64)
        #: Per delta end, how far its row moves on; a delta longer than the
        #: window moves the row past its end, as a truncated one does.
        self.advance = np.arange(1, _WINDOW + 2, dtype=np.int32)
        self.advance[_WINDOW] = MAX_BATCH_PAYLOAD + 1
        #: ``_adapt`` as a table: a damped delta below ``steps[j]`` but not
        #: below ``steps[j - 1]`` is divided by ``divisors[j]``, and ``j``
        #: base steps are added to the bias.  The last step exceeds any
        #: window's delta.
        self.divisors = (_BASE - _TMIN) ** np.arange(_BIASES // _BASE, dtype=np.int64)
        self.steps = (_ADAPT_LIMIT + 1) * self.divisors
        #: ``_adapt``'s result for every damped delta below ``steps[1]``:
        #: above ``_ADAPT_LIMIT``, a base step plus the result for the
        #: delta divided by ``base - tmin`` once.
        small = np.arange(_ADAPT_LIMIT + 1)
        small = ((_BASE - _TMIN + 1) * small) // (small + _SKEW)
        self.small_bias = np.concatenate([small, _BASE + np.repeat(
            small[(_ADAPT_LIMIT + 1) // (_BASE - _TMIN):], _BASE - _TMIN)[1:]]).astype(np.uint8)
        #: Per ``code point >> 11``, whether it is no scalar value: a
        #: surrogate (0x1B) or past 0x10FFFF (clipped to the last entry).
        self.bad_code_point = np.zeros(0x221, dtype=bool)
        self.bad_code_point[[0x1B, 0x220]] = True


_window_tables = cache(_WindowTables)

#: Moves byte *j*'s high bit (shifted down to bit ``8 * j``) to bit
#: ``56 + j``, so ``(bits * _GATHER) >> 56`` is one bit per window digit.
_GATHER = np.uint64(sum(1 << (56 - 7 * j) for j in range(_WINDOW)))
_HIGH_BITS = np.uint64(0x8080808080808080)

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
    lockstep instead, one delta (one insertion) per step.  A step reads
    the next :data:`_WINDOW` digit values of every live row as one
    ``uint64``; the row's bias picks the thresholds, so one subtraction
    marks the digits that could end the delta and the first of them does.
    Every live row then divides, adapts its bias and records an ``(index,
    code point)`` insertion, and the rows whose digits are used up leave
    the state arrays.  Afterwards every insertion's final column follows
    from the insertions made after it, and the inserted and basic code
    points are scattered straight into the packed output.
    """
    tables = _window_tables()
    thresholds = tables.thresholds
    rows = len(lengths)
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.cumsum(lengths)
    if rows and (starts[0] != 0 or not np.array_equal(starts[1:], ends[:-1])):
        # Pack the rows end to end, as the kernel's gather already does.
        gather = np.arange(int(ends[-1]), dtype=np.int64)
        gather += np.repeat(starts - (ends - lengths), lengths)
        codes = codes[gather]
    starts = ends - lengths
    size = int(ends[-1]) if rows else 0

    # Every code point's digit value; the tail pads the last row's window.
    digits = np.zeros(size + _WINDOW, dtype=np.uint8)
    np.take(tables.digits, codes[:size], mode="clip", out=digits[:size])
    windows = np.ndarray((size,), dtype="<u8", buffer=digits, strides=(1,))
    # Non-digits are rare (at most a delimiter per row in a clean batch):
    # the last "-" of a row is its delimiter, and any other non-digit after
    # it, or a control or non-ASCII code point anywhere, flags the row.
    others = np.flatnonzero(digits[:size] >= 36)
    other_row = np.searchsorted(starts, others, side="right") - 1
    hyphens = codes[others] == 0x2D
    hyphen_row = other_row[hyphens]
    last = np.ones(hyphen_row.size, dtype=bool)
    last[:-1] = hyphen_row[1:] != hyphen_row[:-1]
    extended_from = starts.copy()
    extended_from[hyphen_row[last]] = others[hyphens][last] + 1
    junk = np.zeros(rows, dtype=bool)
    junk[other_row[(others >= extended_from[other_row]) | (digits[others] == 37)]] = True
    basic_len = np.maximum(extended_from - starts - 1, 0)
    ok = (ends > extended_from) & (lengths <= MAX_BATCH_PAYLOAD) & ~junk

    # Decoder state per live row (RFC 3492 section 6.2), one row of a
    # matrix each so that a step drops the finished rows in one pass:
    # rank among the live rows, next digit, end of digits, index, code
    # point, bias and basic length (int32 holds each exactly below 2**30
    # code points).  A row whose
    # window holds no delta end, whose delta runs past its digits or whose
    # code point is no scalar value is flagged and dropped.  The RFC's
    # overflow tests need no pass of their own: a delta whose index or
    # weight passes maxint inserts a code point past 0x10FFFF (the output
    # holds at most 59).
    live = np.flatnonzero(ok)
    count = live.size
    state = np.empty((7, count), dtype=np.int32 if size < 1 << 30 else np.int64)
    state[0] = np.arange(count)
    state[1] = extended_from[live]
    state[2] = ends[live]
    state[3] = 0
    state[4] = _INITIAL_N
    state[5] = _INITIAL_BIAS
    state[6] = basic_len[live]
    records = [(np.zeros(0, dtype=np.int64),) * 3]   # (rank, column, code point)
    flagged = []
    step = 0
    while state.shape[1]:
        rank, position, end, index, n, bias, basic = state
        window = windows[position]
        first = step == 0
        stops = (thresholds[_INITIAL_BIAS] if first else thresholds.take(bias)) - window
        stops &= _HIGH_BITS
        stops >>= np.uint64(7)
        stops *= _GATHER
        stops >>= np.uint64(56)
        ends_at = tables.first_end.take(stops)
        window &= tables.up_to[ends_at]
        # Only the columns up to the longest delta's end carry weight.
        width = min(int(ends_at.max()) + 1, _WINDOW)
        digit_rows = window.view(np.uint8).reshape(-1, _WINDOW).T[:width]
        if first:
            weights = tables.weights[:width, _INITIAL_BIAS, None] * digit_rows
        else:
            weights = tables.weights[:width].take(bias, axis=1)
            weights *= digit_rows
        delta = weights.sum(axis=0)
        new_size = basic + (step + 1)
        step_n, column = np.divmod(index + delta, new_size)
        new_n = n + step_n
        records.append((rank, column, new_n))
        # _adapt(delta, new_size, first insertion), table-driven.
        delta //= _DAMP if first else 2
        delta += delta // new_size
        bias[:] = tables.small_bias.take(delta, mode="clip")
        large = delta >= tables.small_bias.size
        if large.any():
            delta = delta[large]
            divisions = np.searchsorted(tables.steps, delta, side="right")
            delta //= tables.divisors[divisions]
            bias[large] = _BASE * divisions + ((_BASE - _TMIN + 1) * delta) // (delta + _SKEW)
        n[:] = new_n
        index[:] = column + 1
        position += tables.advance.take(ends_at)
        bad = position > end
        bad |= tables.bad_code_point.take(new_n >> 11, mode="clip")
        if bad.any():
            flagged.append(rank[bad])
            bad |= position == end
            state = state.take(np.flatnonzero(~bad), axis=1)
        else:
            state = state.take(np.flatnonzero(position < end), axis=1)
        step += 1

    # Every insertion as a slot of a (step, rank) matrix whose unused
    # slots hold a column past every row (a row decodes to at most 59
    # code points), so that no insertion is counted before them.
    ranks, columns, inserted = map(np.concatenate, zip(*records))
    slots = ranks + np.repeat(np.arange(-1, step) * count, [len(r[0]) for r in records])
    inserted_at = np.full((step, count), MAX_BATCH_PAYLOAD, dtype=np.uint8)
    inserted_at.ravel()[slots] = columns
    # Replay: an insertion ends one column right of where it was made for
    # every later insertion at or before it.
    for later in range(1, step):
        earlier = inserted_at[:later]
        earlier += earlier >= inserted_at[later]
    if flagged:
        bad = np.zeros(count, dtype=bool)
        bad[np.concatenate(flagged)] = True
        ok[live[bad]] = False
        kept = ~bad[ranks]
        ranks, slots, inserted = ranks[kept], slots[kept], inserted[kept]

    out_lengths = np.zeros(rows, dtype=np.int64)
    out_lengths[live] = basic_len[live] + np.bincount(ranks, minlength=count)
    out_lengths[~ok] = 0
    out_starts = np.zeros(rows, dtype=np.int64)
    np.cumsum(out_lengths[:-1], out=out_starts[1:])
    out_codes = np.empty(int(out_lengths.sum()), dtype=np.uint32)
    at = out_starts[live][ranks] + inserted_at.ravel()[slots]
    out_codes[at] = inserted
    basic = np.where(ok, basic_len, 0)
    source = np.arange(int(basic.sum()), dtype=np.int64)
    source += np.repeat(starts - (np.cumsum(basic) - basic), basic)
    is_basic = np.ones(out_codes.size, dtype=bool)
    is_basic[at] = False
    out_codes[is_basic] = codes[source]
    return out_codes, out_starts, out_lengths, ok
