"""Pixel-difference metric Δ (the paper's Section 3.3 metric).

For two binary images ``I1`` and ``I2`` of size ``N x N``::

    Δ = Σ_i Σ_j | I1(i, j) - I2(i, j) |

``Δ = 0`` means the glyphs are pixel-identical.  The mean square error used
to relate Δ to PSNR is ``MSE = Δ / N²`` because the pixels are binary.

Besides the scalar metric, this module provides vectorised helpers used by
the SimChar builder to evaluate millions of candidate pairs quickly:
glyph stacking, blockwise pairwise distance computation, the ink-count
pruning bound (two glyphs whose ink counts differ by more than θ cannot
have Δ ≤ θ), and a bit-packed scan engine.

The packed engine stores each bitmap as a row of ``uint64`` words (64 pixels
per word) so the inner Δ loop is ``popcount(a XOR b)`` — one machine word
covers 64 pixels instead of one ``int16`` per pixel, which cuts per-pair
cost by roughly 8x.  The scan is sharded over contiguous ranges of the
ink-sorted glyph order so it can be fanned out across worker processes
(the paper ran Step II on 15 workers for 10.9 hours; see
:func:`packed_candidate_pairs`).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..fonts.glyph import Glyph

from ..parallel.pool import pool_context

__all__ = [
    "delta",
    "mse",
    "delta_matrix",
    "pairwise_deltas",
    "stack_glyphs",
    "candidate_pairs_within",
    "pack_bitmap_rows",
    "pack_glyphs",
    "popcount_rows",
    "packed_candidate_pairs",
]


def delta(first: Glyph | np.ndarray, second: Glyph | np.ndarray) -> int:
    """Number of differing pixels between two binary images."""
    a = first.bitmap if isinstance(first, Glyph) else np.asarray(first, dtype=np.uint8)
    b = second.bitmap if isinstance(second, Glyph) else np.asarray(second, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def mse(first: Glyph | np.ndarray, second: Glyph | np.ndarray) -> float:
    """Mean square error for binary images: Δ divided by the pixel count."""
    a = first.bitmap if isinstance(first, Glyph) else np.asarray(first, dtype=np.uint8)
    return delta(first, second) / a.size


def stack_glyphs(glyphs: Sequence[Glyph]) -> np.ndarray:
    """Stack glyph bitmaps into an ``(n, size*size)`` uint8 matrix."""
    if not glyphs:
        return np.zeros((0, 0), dtype=np.uint8)
    size = glyphs[0].size
    flat = np.empty((len(glyphs), size * size), dtype=np.uint8)
    for index, glyph in enumerate(glyphs):
        if glyph.size != size:
            raise ValueError("all glyphs must share the same size")
        flat[index] = glyph.bitmap.reshape(-1)
    return flat


def delta_matrix(glyphs: Sequence[Glyph], *, block: int = 256) -> np.ndarray:
    """Full pairwise Δ matrix for a glyph list.

    Computed blockwise so memory stays bounded at ``block x n`` int32.
    Suitable for repertoires up to a few thousand glyphs; the SimChar
    builder uses :func:`candidate_pairs_within` with pruning for larger
    inputs.
    """
    flat = stack_glyphs(glyphs).astype(np.int16)
    n = flat.shape[0]
    result = np.zeros((n, n), dtype=np.int32)
    for start in range(0, n, block):
        stop = min(start + block, n)
        chunk = flat[start:stop]
        # |a-b| summed over pixels == xor count for binary images.
        diffs = np.abs(chunk[:, None, :] - flat[None, :, :]).sum(axis=2)
        result[start:stop] = diffs.astype(np.int32)
    return result


def pairwise_deltas(glyphs: Sequence[Glyph]) -> Iterator[tuple[int, int, int]]:
    """Yield ``(i, j, Δ)`` for every unordered pair of glyphs (i < j)."""
    flat = stack_glyphs(glyphs).astype(np.int16)
    n = flat.shape[0]
    for i in range(n):
        if i + 1 >= n:
            break
        diffs = np.abs(flat[i + 1:] - flat[i]).sum(axis=1)
        for offset, value in enumerate(diffs):
            yield i, i + 1 + offset, int(value)


def candidate_pairs_within(
    glyphs: Sequence[Glyph],
    threshold: int,
    *,
    block: int = 512,
) -> Iterator[tuple[int, int, int]]:
    """Yield ``(i, j, Δ)`` for pairs with ``Δ <= threshold``.

    Uses the ink-count bound for pruning: since
    ``Δ(a, b) >= |ink(a) - ink(b)|``, glyphs are bucketed by ink count and
    only pairs whose counts are within ``threshold`` of each other are
    compared exactly.  This turns the quadratic scan of the full repertoire
    into a near-linear pass for realistic glyph populations, which is how
    the default SimChar build stays laptop-sized (DESIGN.md §2).
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    flat = stack_glyphs(glyphs).astype(np.int16)
    n = flat.shape[0]
    if n == 0:
        return
    ink = flat.sum(axis=1)
    order = np.argsort(ink, kind="stable")
    sorted_ink = ink[order]

    for position in range(n):
        i = int(order[position])
        # Find the window of candidates whose ink count is within threshold.
        upper_value = sorted_ink[position] + threshold
        end = int(np.searchsorted(sorted_ink, upper_value, side="right"))
        candidate_positions = order[position + 1:end]
        if candidate_positions.size == 0:
            continue
        for start in range(0, candidate_positions.size, block):
            chunk = candidate_positions[start:start + block]
            diffs = np.abs(flat[chunk] - flat[i]).sum(axis=1)
            hits = np.nonzero(diffs <= threshold)[0]
            for hit in hits:
                j = int(chunk[hit])
                a, b = (i, j) if i < j else (j, i)
                yield a, b, int(diffs[hit])


# -- bit-packed scan engine ---------------------------------------------------

# numpy >= 2.0 exposes a hardware popcount; older versions fall back to a
# byte-wise lookup table.
_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def pack_bitmap_rows(flat: np.ndarray) -> np.ndarray:
    """Pack ``(n, pixels)`` binary rows into ``(n, words)`` uint64 rows.

    Rows are padded with zero bits up to a multiple of 64, so XOR popcounts
    over packed rows equal the pixel-difference Δ exactly.
    """
    flat = np.asarray(flat, dtype=np.uint8)
    if flat.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {flat.shape}")
    if flat.shape[0] == 0 or flat.shape[1] == 0:
        return np.zeros((flat.shape[0], 0), dtype=np.uint64)
    packed = np.packbits(flat, axis=1)
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def pack_glyphs(glyphs: Sequence[Glyph]) -> np.ndarray:
    """Pack glyph bitmaps into an ``(n, words)`` uint64 matrix."""
    return pack_bitmap_rows(stack_glyphs(glyphs))


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Total set-bit count of each row of a uint64 matrix."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    as_bytes = words.view(np.uint8)
    return _POPCOUNT_LUT[as_bytes].sum(axis=1, dtype=np.int64)


def scan_packed_shard(
    packed_sorted: np.ndarray,
    ink_sorted: np.ndarray,
    order: np.ndarray,
    threshold: int,
    start: int,
    stop: int,
) -> list[tuple[int, int, int]]:
    """Scan positions ``[start, stop)`` of the ink-sorted glyph order.

    Arguments are the bit-packed bitmaps and ink counts *already permuted*
    into ascending-ink order, plus ``order`` mapping sorted position back to
    the original glyph index.  Each position is compared (popcount of XOR)
    only against later positions whose ink count lies within ``threshold``,
    i.e. the same pruning window as :func:`candidate_pairs_within`.  The
    function is self-contained so worker processes can run shards
    independently; the union of all shards is the exact pair set.
    """
    pairs: list[tuple[int, int, int]] = []
    n = len(ink_sorted)
    for position in range(start, min(stop, n)):
        end = int(np.searchsorted(ink_sorted, ink_sorted[position] + threshold, side="right"))
        if end <= position + 1:
            continue
        diffs = popcount_rows(packed_sorted[position + 1:end] ^ packed_sorted[position])
        hits = np.nonzero(diffs <= threshold)[0]
        i = int(order[position])
        for hit in hits:
            j = int(order[position + 1 + int(hit)])
            a, b = (i, j) if i < j else (j, i)
            pairs.append((a, b, int(diffs[hit])))
    return pairs


# Worker-side state for the multiprocessing pool: the packed arrays are
# shipped once per worker through the initializer instead of once per shard.
_WORKER_STATE: dict = {}


def _shard_worker_init(packed_sorted, ink_sorted, order, threshold) -> None:
    _WORKER_STATE["args"] = (packed_sorted, ink_sorted, order, threshold)


def _shard_worker(bounds: tuple[int, int]) -> list[tuple[int, int, int]]:
    packed_sorted, ink_sorted, order, threshold = _WORKER_STATE["args"]
    return scan_packed_shard(packed_sorted, ink_sorted, order, threshold, *bounds)


def packed_candidate_pairs(
    glyphs: Sequence[Glyph],
    threshold: int,
    *,
    jobs: int = 1,
    min_parallel_size: int = 256,
    start_method: str | None = None,
) -> list[tuple[int, int, int]]:
    """All ``(i, j, Δ)`` pairs with ``Δ <= threshold``, bit-packed scan.

    Produces exactly the same pair set as :func:`candidate_pairs_within`
    but with uint64/popcount arithmetic in the inner loop, and optionally
    sharded across ``jobs`` worker processes.  The result is sorted by
    ``(i, j)`` so serial and parallel runs are byte-identical.

    The shard state shipped to workers is plain numpy arrays (picklable),
    so the pool runs parallel under every start method — fork inherits the
    arrays, spawn pickles them (a few hundred KB for the default
    repertoire).  *start_method* forces one; ``None`` honours the
    host/platform choice.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    flat = stack_glyphs(glyphs)
    n = flat.shape[0]
    if n < 2:
        return []
    ink = flat.sum(axis=1, dtype=np.int64)
    order = np.argsort(ink, kind="stable")
    ink_sorted = ink[order]
    packed_sorted = pack_bitmap_rows(flat[order])

    if jobs == 1 or n < min_parallel_size:
        pairs = scan_packed_shard(packed_sorted, ink_sorted, order, threshold, 0, n)
    else:
        context = pool_context(start_method)
        # Contiguous shards, several per worker so uneven pruning windows
        # balance out.
        shard_count = min(n, jobs * 8)
        bounds = []
        step = -(-n // shard_count)
        for start in range(0, n, step):
            bounds.append((start, min(start + step, n)))
        with context.Pool(
            processes=jobs,
            initializer=_shard_worker_init,
            initargs=(packed_sorted, ink_sorted, order, threshold),
        ) as pool:
            pairs = []
            for shard_pairs in pool.imap_unordered(_shard_worker, bounds):
                pairs.extend(shard_pairs)
    pairs.sort()
    return pairs


def nearest_neighbours(
    glyphs: Sequence[Glyph],
    *,
    limit: int = 5,
) -> dict[int, list[tuple[int, int]]]:
    """For each glyph index return its *limit* closest other glyphs by Δ.

    Helper used by reports and the Figure 6 bench (showing the closest
    candidates of a letter at increasing Δ).
    """
    flat = stack_glyphs(glyphs).astype(np.int16)
    n = flat.shape[0]
    result: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        diffs = np.abs(flat - flat[i]).sum(axis=1)
        diffs[i] = np.iinfo(np.int32).max
        order = np.argsort(diffs, kind="stable")[:limit]
        result[i] = [(int(j), int(diffs[j])) for j in order]
    return result
