"""Random number generation for Tsetlin Machine training.

TM training is a stochastic process that consumes a very large volume of
random decisions (one Bernoulli draw per automaton per feedback event).  The
paper's references [20] (cyclostationary sequences) and [21] (parallel
symbiotic xorshift generators) study hardware-friendly generators for on-chip
training.  This module provides software models of both, plus a thin adapter
so the trainer can also consume a ``numpy.random.Generator`` directly.

All generators expose the same methods used by the trainer:

``random(shape)``
    Uniform floats in ``[0, 1)`` with the given shape.
``bernoulli(p, shape)``
    Boolean array of the given shape, ``True`` with probability ``p``.
``integers(low, high)``
    One integer drawn uniformly from ``[low, high)``.
``skip(n)``
    Advance the stream past ``n`` draws without materializing them.
    Generators that can jump (PCG64 via ``advance``, the cyclostationary
    bank via its stride) do so in O(1)/O(log n); the base implementation
    falls back to draw-and-discard.
``random_rows(rows, n_rows, n_cols)``
    The selected ``rows`` of a ``(n_rows, n_cols)`` uniform block,
    generating only those rows and skipping the rest, so the stream ends
    where ``random((n_rows, n_cols))`` would leave it.  Type I feedback
    draws through this: the reference trainer consumes a full
    ``(clauses, literals)`` block per event, while the vectorized
    backend needs only the rows of selected clauses and stays
    bit-identical with it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TMRandom",
    "NumpyRandom",
    "XorShift128Plus",
    "CyclostationaryRandom",
    "make_rng",
]

_UINT64_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_DOUBLE_SCALE = float(2**53)


class TMRandom:
    """Interface for random sources consumed by the TM trainer."""

    def random(self, shape):
        """Return uniform floats in [0, 1) with the requested shape."""
        raise NotImplementedError

    def bernoulli(self, p, shape):
        """Return a boolean array, elementwise True with probability ``p``."""
        return self.random(shape) < p

    def integers(self, low, high):
        """Return one integer uniformly drawn from [low, high)."""
        span = high - low
        return low + int(self.random(()) * span)

    def skip(self, n):
        """Advance the stream as if ``n`` uniforms had been drawn."""
        n = int(n)
        if n > 0:
            self.random((n,))

    def random_rows(self, rows, n_rows, n_cols):
        """Return ``random((n_rows, n_cols))[rows]``, generating only ``rows``.

        ``rows`` are strictly increasing indices into ``range(n_rows)``.
        Each run of consecutive rows costs one ``random`` call; the rows
        before, between and after the runs are skipped, so the stream ends
        where the full block draw would leave it.

        >>> import numpy as np
        >>> from repro.tsetlin.rng import make_rng
        >>> full_rng, rows_rng = make_rng(seed=7), make_rng(seed=7)
        >>> full = full_rng.random((6, 3))
        >>> picked = rows_rng.random_rows([1, 2, 4], 6, 3)
        >>> np.array_equal(picked, full[[1, 2, 4]])
        True
        >>> np.array_equal(rows_rng.random((2,)), full_rng.random((2,)))
        True
        """
        rows = np.asarray(rows, dtype=np.intp)
        out = np.empty((len(rows), n_cols))
        pos = 0
        for first, lo, hi in _row_runs(rows.tolist()):
            self.skip((first - pos) * n_cols)
            out[lo:hi] = self.random((hi - lo, n_cols))
            pos = first + hi - lo
        self.skip((n_rows - pos) * n_cols)
        return out


def _row_runs(rows):
    """``(first_row, lo, hi)`` for each run of consecutive values in ``rows``.

    ``rows[lo:hi]`` is the run; ``rows`` is a sorted list of ints.
    """
    runs = []
    lo = 0
    for i in range(1, len(rows)):
        if rows[i] != rows[i - 1] + 1:
            runs.append((rows[lo], lo, i))
            lo = i
    if rows:
        runs.append((rows[lo], lo, len(rows)))
    return runs


class NumpyRandom(TMRandom):
    """Adapter wrapping a :class:`numpy.random.Generator`.

    ``skip`` jumps the PCG64 stream with ``advance`` — one 64-bit word per
    float64 draw, so advancing by ``n`` lands exactly where ``random((n,))``
    would.  One wrinkle: bounded ``integers()`` consumes 32-bit halves and
    buffers the spare half in the generator state; ``advance()`` clears
    that buffer while ``random()`` preserves it.  To keep skipped and
    unskipped streams bit-identical, the first ``skip`` after an
    ``integers`` call stashes the buffered half and the next ``integers``
    call restores it (float draws never touch it).
    """

    def __init__(self, seed=None):
        self._gen = np.random.default_rng(seed)
        self._advance = getattr(self._gen.bit_generator, "advance", None)
        # None = buffer state unknown (must inspect); False = known empty.
        self._spare_uint = None if self._advance is not None else False

    def random(self, shape):
        return self._gen.random(shape)

    def bernoulli(self, p, shape):
        return self._gen.random(shape) < p

    def integers(self, low, high):
        spare = self._spare_uint
        if spare is not None and spare is not False:
            bg = self._gen.bit_generator
            state = bg.state
            state["has_uint32"] = 1
            state["uinteger"] = spare
            bg.state = state
        self._spare_uint = None
        return int(self._gen.integers(low, high))

    def skip(self, n):
        n = int(n)
        if n <= 0:
            return
        if self._advance is None:  # exotic bit generator without advance()
            self._gen.random((n,))
            return
        if self._spare_uint is None:
            state = self._gen.bit_generator.state
            self._spare_uint = (
                state["uinteger"] if state.get("has_uint32") else False
            )
        self._advance(n)


class XorShift128Plus(TMRandom):
    """Software model of the xorshift128+ generator from paper ref. [21].

    The hardware version runs many of these in parallel ("symbiotic"
    generators); here a single stream is enough because the software trainer
    draws vectors at once.  State updates follow Vigna's reference:
    ``s1 ^= s1 << 23; s1 ^= s1 >> 17; s1 ^= s0 ^ (s0 >> 26)``.
    """

    def __init__(self, seed=0xDEADBEEFCAFEBABE):
        if seed == 0:
            raise ValueError("xorshift seed must be non-zero")
        # SplitMix64 expansion of the scalar seed into two 64-bit words.
        s = np.uint64(seed)
        self._state = np.empty(2, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for i in range(2):
                s = (s + np.uint64(0x9E3779B97F4A7C15)) & _UINT64_MASK
                z = s
                z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _UINT64_MASK
                z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _UINT64_MASK
                self._state[i] = z ^ (z >> np.uint64(31))

    def _next_block(self, n):
        """Draw ``n`` raw 64-bit outputs (vectorized over the block)."""
        out = np.empty(n, dtype=np.uint64)
        s0, s1 = self._state[0], self._state[1]
        with np.errstate(over="ignore"):
            for i in range(n):
                result = (s0 + s1) & _UINT64_MASK
                x = s1 ^ ((s1 << np.uint64(23)) & _UINT64_MASK)
                s1_new = x ^ s0 ^ (x >> np.uint64(17)) ^ (s0 >> np.uint64(26))
                s0, s1 = s1, s1_new
                out[i] = result
        self._state[0], self._state[1] = s0, s1
        return out

    def random(self, shape):
        n = int(np.prod(shape)) if shape != () else 1
        raw = self._next_block(n)
        vals = (raw >> np.uint64(11)).astype(np.float64) / _DOUBLE_SCALE
        if shape == ():
            return vals[0]
        return vals.reshape(shape)


class CyclostationaryRandom(TMRandom):
    """Cyclostationary random sequence model (paper ref. [20]).

    Hardware TM trainers replace free-running RNGs with a pre-generated bank
    of random words replayed cyclically; training quality is preserved
    because the TM only needs decorrelation across automata, not
    cryptographic randomness.  We model this with a fixed bank of uniform
    floats replayed with a stride that is coprime to the bank length so
    successive sweeps see the bank in a different order.
    """

    def __init__(self, bank_size=65537, seed=1234, stride=7919):
        if bank_size < 2:
            raise ValueError("bank_size must be >= 2")
        gen = np.random.default_rng(seed)
        self._bank = gen.random(bank_size)
        self._size = bank_size
        if np.gcd(stride, bank_size) != 1:
            stride += 1
        self._stride = stride % bank_size
        self._pos = 0

    @property
    def bank_size(self):
        return self._size

    def random(self, shape):
        n = int(np.prod(shape)) if shape != () else 1
        idx = (self._pos + self._stride * np.arange(n, dtype=np.int64)) % self._size
        self._pos = int((self._pos + self._stride * n) % self._size)
        vals = self._bank[idx]
        if shape == ():
            return vals[0]
        return vals.reshape(shape)

    def skip(self, n):
        # Replay position advances by a fixed stride per draw, so a skip is
        # a single modular multiply-accumulate.
        self._pos = int((self._pos + self._stride * int(n)) % self._size)


def make_rng(kind="numpy", seed=None):
    """Factory for the RNG kinds understood by the trainer.

    Parameters
    ----------
    kind:
        ``"numpy"`` (default, fastest), ``"xorshift"`` (hardware model of
        ref. [21]) or ``"cyclostationary"`` (hardware model of ref. [20]).
    seed:
        Optional seed; each kind interprets it natively.
    """
    if kind == "numpy":
        return NumpyRandom(seed)
    if kind == "xorshift":
        return XorShift128Plus(seed if seed is not None else 0xDEADBEEFCAFEBABE)
    if kind == "cyclostationary":
        return CyclostationaryRandom(seed=seed if seed is not None else 1234)
    raise ValueError(f"unknown rng kind: {kind!r}")
