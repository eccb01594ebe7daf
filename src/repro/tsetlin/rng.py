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

Type I feedback draws one ``bernoulli(1 / s, (selected clauses,
literals))`` mask per event, and clause selection one ``bernoulli(p,
(clauses,))`` per class phase.  :class:`NumpyRandom` builds its masks
from raw PCG64 words (two 32-bit draws per word), so a mask costs
``ceil(n / 2)`` words whatever ``p`` is; the hardware models compare
uniforms, ``random(shape) < p``.
"""

from __future__ import annotations

import math

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


class NumpyRandom(TMRandom):
    """Adapter wrapping a :class:`numpy.random.Generator`."""

    def __init__(self, seed=None):
        self._gen = np.random.default_rng(seed)

    def random(self, shape):
        return self._gen.random(shape)

    def integers(self, low, high):
        return int(self._gen.integers(low, high))

    def bernoulli(self, p, shape):
        """Boolean mask from raw PCG64 words: ``u < floor(p * 2**32)``.

        The ``n`` cells of ``shape`` take the first ``n`` values of
        ``random_raw(ceil(n / 2)).view(np.uint32)``.  The same words are
        consumed whatever ``p`` is; ``p >= 1`` gives all True and ``p <=
        0`` all False.  Raw draws leave ``integers()``' buffered 32-bit
        half alone.

        >>> import numpy as np
        >>> rng, ref = NumpyRandom(7), np.random.default_rng(7)
        >>> mask = rng.bernoulli(0.25, (3, 5))  # 15 cells: 8 words
        >>> words = ref.bit_generator.random_raw(8)
        >>> np.array_equal(mask, (words.view(np.uint32)[:15]
        ...                       < 2**30).reshape(3, 5))
        True
        >>> float(rng.random(())) == ref.random()
        True
        """
        n = math.prod(shape)
        u = self._gen.bit_generator.random_raw((n + 1) // 2)
        if p <= 0.0:
            return np.zeros(shape, dtype=bool)
        if p >= 1.0:
            return np.ones(shape, dtype=bool)
        u = u.view(np.uint32)[:n].reshape(shape)
        return u < np.uint32(p * 4294967296.0)


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
