"""Bit-packed word kernels shared by training and serving.

A Tsetlin clause fails on a sample iff any *included* literal is 0, i.e.
iff ``include & ~literals`` has any set bit.  Packing both operands into
uint64 words (``pack_words`` / ``pack_not_literal_words``) turns one
clause/sample evaluation into a word-wise AND over ``ceil(2f / 64)``
words plus a reduction — the same kernel the generated hardware's AND
planes implement, which is why the packed path is bit-identical with the
dense reference semantics.  This word layout is the only packing the
software model uses.

A batch is evaluated in row chunks whose ``(rows, clauses, words)`` AND
intermediate stays near a core's L2 cache (``BATCH_CHUNK_BYTES``), and
each chunk is OR-reduced over its words in uint64 — a clause holds iff
the OR is 0 — rather than cast to bool for ``any``.

Only the include matrix and the literals are packed; the automaton
states themselves stay dense int16 in ``team.state``, where training
feedback updates them in place and re-packs just the include rows that
flipped.

These kernels are the single implementation behind:

* :meth:`VectorizedBackend.batch_outputs` and the training-time clause
  evaluation,
* :class:`repro.serving.InferenceEngine` (the serving engine, which packs
  the include matrix once per model snapshot and reuses it per request).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_words",
    "pack_not_literal_words",
    "packed_clause_outputs",
]

# Soft cap (bytes) on the (rows, clauses, words) AND intermediate of one
# chunk of a batched evaluation.  512 KiB keeps the chunk and its OR
# reduction inside a core's L2 cache (2 MiB on a Xeon host).  With 396
# active clauses x 25 words (a flow-mnist model, one thread), 512 KiB
# was the fastest cap at batch 64, 256 and 1024: 64 KiB pays per-chunk
# call overhead, and 2 MiB and up leave L2 (16 MiB took 1.8x as long at
# batch 1024).
BATCH_CHUNK_BYTES = 1 << 19


def pack_words(bits):
    """Pack a boolean array's last axis into big-endian uint64 words.

    The word layout is ``np.packbits`` bytes viewed as uint64, so byte
    ``i`` of word ``w`` covers bits ``64w + 8i .. 64w + 8i + 7`` (MSB
    first).  Pad bits beyond the last real literal are always 0, which
    keeps every AND/any kernel exact.
    """
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=-1)
    n_bytes = packed.shape[-1]
    pad = (-n_bytes) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return np.ascontiguousarray(packed).view(np.uint64)


def pack_not_literal_words(L):
    """uint64-word packing of ``~L`` — the hot-path form of a batch."""
    return pack_words(~np.asarray(L, dtype=bool))


def packed_clause_outputs(nlp, inc_packed, nonempty=None):
    """Clause outputs ``(samples, clauses...)`` from packed operands.

    Parameters
    ----------
    nlp:
        Packed ``~literals``, shape ``(samples, words)`` uint64 (from
        :func:`pack_not_literal_words`).
    inc_packed:
        Packed include matrix, shape ``(clauses..., words)`` uint64 (from
        :func:`pack_words`) — any number of leading clause axes (e.g.
        ``(C, K)`` or flat ``(C * K,)``).
    nonempty:
        Optional bool mask of shape ``inc_packed.shape[:-1]``; when given,
        clauses with no includes are forced to 0 (the hardware pruning
        convention).  When omitted, empty clauses output 1.

    Returns a uint8 array of shape ``(samples, *clauses)``.

    >>> inc = pack_words([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0]])
    >>> nlp = pack_not_literal_words([[1, 1, 0, 1], [1, 0, 1, 0]])
    >>> packed_clause_outputs(nlp, inc)
    array([[1, 0, 1],
           [1, 0, 1]], dtype=uint8)
    >>> packed_clause_outputs(nlp, inc, nonempty=[True, True, False])
    array([[1, 0, 0],
           [1, 0, 0]], dtype=uint8)
    """
    nlp = np.asarray(nlp)
    inc_packed = np.asarray(inc_packed)
    if nlp.dtype != np.uint64 or inc_packed.dtype != np.uint64:
        raise ValueError(
            f"packed operands must be uint64 words, got {nlp.dtype} and "
            f"{inc_packed.dtype}"
        )
    if nlp.ndim == 1:
        nlp = nlp[np.newaxis]
    n = len(nlp)
    clause_shape = inc_packed.shape[:-1]
    n_words = inc_packed.shape[-1]
    flat = inc_packed.reshape(1, -1, n_words)
    n_rows = flat.shape[1]
    out = np.empty((n, n_rows), dtype=bool)
    chunk = max(1, BATCH_CHUNK_BYTES // max(1, n_rows * n_words * 8))
    for a in range(0, n, chunk):
        b = min(n, a + chunk)
        v = np.bitwise_and(nlp[a:b, None, :], flat)
        np.equal(np.bitwise_or.reduce(v, axis=2), 0, out=out[a:b])
    result = out.view(np.uint8).reshape((n,) + clause_shape)
    if nonempty is not None:
        result = result & np.asarray(nonempty)[np.newaxis].view(np.uint8)
    return result
