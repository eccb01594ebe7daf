"""Bit-packed word kernels shared by training and serving.

A Tsetlin clause fails on a sample iff any *included* literal is 0, i.e.
iff ``include & ~literals`` has any set bit.  Packing both operands turns
one clause/sample evaluation into a word-wise AND over
``ceil(2f / 64)`` uint64 words plus an any-reduction — the same kernel
the generated hardware's AND planes implement, which is why the packed
path is bit-identical with the dense reference semantics.

Two packing granularities live here:

* ``np.packbits`` bytes (``pack_include`` / ``pack_not_literals``) — the
  historical uint8 layout, still the generic :class:`TMBackend` fallback;
* uint64 **words** (``pack_words`` / ``pack_not_literal_words``) — the
  hot-path layout: 8x fewer elements per AND and per any-reduction.
  ``packed_clause_outputs`` / ``packed_class_sums`` accept either, as
  long as both operands agree.

Only the include matrix and the literals are packed; the automaton
states themselves stay dense int16 in ``team.state``, where training
feedback updates them in place and re-packs just the include rows that
flipped.

These kernels are the single implementation behind:

* :meth:`VectorizedBackend.batch_outputs` and the training-time clause
  evaluation,
* :meth:`TMBackend.packed_predict` (the fast path every backend offers),
* :class:`repro.serving.InferenceEngine` (the serving engine, which packs
  the include matrix once per model snapshot and reuses it per request).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_include",
    "pack_not_literals",
    "pack_words",
    "pack_not_literal_words",
    "packed_clause_outputs",
    "packed_class_sums",
]

# Soft cap (bytes) on one chunk of the batched packed evaluation; keeps
# the (samples, clauses, bytes) AND intermediate inside cache-friendly
# working sets for large batches.
BATCH_CHUNK_BYTES = 1 << 24


def pack_include(include):
    """Pack an include matrix along its literal axis.

    Returns ``(inc_packed, nonempty)`` where ``inc_packed`` packs the
    trailing axis with :func:`np.packbits` and ``nonempty`` is the
    per-clause any-include mask (shape = ``include.shape[:-1]``) used to
    prune empty clauses under the hardware convention.
    """
    include = np.asarray(include, dtype=bool)
    return np.packbits(include, axis=-1), include.any(axis=-1)


def pack_not_literals(L):
    """Pack the *complement* of a literal matrix along its last axis.

    The kernels consume ``~L`` packed: a clause is violated iff
    ``include & ~L`` is non-zero anywhere.
    """
    return np.packbits(~np.asarray(L, dtype=bool), axis=-1)


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


def packed_clause_outputs(nlp, inc_packed, nonempty=None,
                          chunk_bytes=BATCH_CHUNK_BYTES):
    """Clause outputs ``(samples, clauses...)`` from packed operands.

    Parameters
    ----------
    nlp:
        Packed ``~literals``, shape ``(samples, units)`` — uint8 bytes or
        uint64 words, matching ``inc_packed``.
    inc_packed:
        Packed include matrix, shape ``(clauses..., units)`` — any number
        of leading clause axes (e.g. ``(C, K)`` or flat ``(C * K,)``).
    nonempty:
        Optional bool mask of shape ``inc_packed.shape[:-1]``; when given,
        clauses with no includes are forced to 0 (the hardware pruning
        convention).  When omitted, empty clauses output 1.

    Returns a uint8 array of shape ``(samples, *clauses)``.
    """
    nlp = np.asarray(nlp)
    inc_packed = np.asarray(inc_packed)
    if nlp.dtype != inc_packed.dtype:
        raise ValueError(
            f"packed operand dtypes differ: {nlp.dtype} vs {inc_packed.dtype}"
        )
    if nlp.ndim == 1:
        nlp = nlp[np.newaxis]
    n = len(nlp)
    clause_shape = inc_packed.shape[:-1]
    n_units = inc_packed.shape[-1]
    flat = inc_packed.reshape(1, -1, n_units)
    n_rows = flat.shape[1]
    out = np.empty((n, n_rows), dtype=bool)
    chunk = max(1, chunk_bytes // max(1, n_rows * n_units * nlp.itemsize))
    for a in range(0, n, chunk):
        b = min(n, a + chunk)
        v = np.bitwise_and(nlp[a:b, None, :], flat)
        np.logical_not(v.any(axis=2), out=out[a:b])
    result = out.view(np.uint8).reshape((n,) + clause_shape)
    if nonempty is not None:
        result = result & np.asarray(nonempty)[np.newaxis].view(np.uint8)
    return result


def packed_class_sums(nlp, inc_packed, nonempty, weights,
                      chunk_bytes=BATCH_CHUNK_BYTES):
    """Class sums ``(samples, classes)`` straight from packed operands.

    ``inc_packed``/``nonempty`` carry clause axes ``(banks, clauses)``
    where ``banks`` is either ``n_classes`` (per-class clause banks) or 1
    (a coalesced shared pool).  ``weights`` is the ``(classes, clauses)``
    integer vote-weight matrix; the shared-pool case broadcasts the single
    bank against every class's weights.
    """
    out = packed_clause_outputs(nlp, inc_packed, nonempty,
                                chunk_bytes=chunk_bytes).astype(np.int32)
    weights = np.asarray(weights, dtype=np.int32)
    if out.shape[1] == 1 and weights.shape[0] != 1:
        return out[:, 0, :] @ weights.T
    return np.einsum("nck,ck->nc", out, weights)
