"""Pluggable training/inference backends for the Tsetlin substrate.

See :mod:`repro.tsetlin.backend.base` for the interface, and pass
``backend="reference"`` / ``backend="vectorized"`` (or an instance) to any
machine constructor, :mod:`repro.tsetlin.search` entry point, or
``FlowConfig``.  Both backends are bit-identical for a given seed; the
vectorized one is roughly an order of magnitude faster on the training
hot path (see ``benchmarks/test_train_throughput.py``).
"""

from .base import BACKENDS, TMBackend, make_backend, register_backend
from .packed import packed_clause_outputs
from .reference import ReferenceBackend
from .vectorized import VectorizedBackend

__all__ = [
    "BACKENDS",
    "TMBackend",
    "make_backend",
    "register_backend",
    "ReferenceBackend",
    "VectorizedBackend",
    "packed_clause_outputs",
]
