"""Tsetlin Machine substrate: automata, feedback, training, booleanization."""

from .automata import AutomataTeam
from .backend import (
    BACKENDS,
    ReferenceBackend,
    TMBackend,
    VectorizedBackend,
    make_backend,
)
from .booleanize import (
    QuantileEncoder,
    ThermometerEncoder,
    ThresholdBinarizer,
    literals_from_features,
)
from .coalesced import CoalescedTsetlinMachine
from .convolutional import ConvolutionalTsetlinMachine
from .feedback import clause_outputs, type_i_feedback, type_ii_feedback
from .inference import InferenceMixin, argmax_lowest
from .machine import MachineBase, TsetlinMachine
from .search import SearchPoint, SearchResult, search_clause_budget
from .rng import (
    CyclostationaryRandom,
    NumpyRandom,
    TMRandom,
    XorShift128Plus,
    make_rng,
)

__all__ = [
    "AutomataTeam",
    "BACKENDS",
    "TMBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "make_backend",
    "QuantileEncoder",
    "ThermometerEncoder",
    "ThresholdBinarizer",
    "literals_from_features",
    "CoalescedTsetlinMachine",
    "ConvolutionalTsetlinMachine",
    "clause_outputs",
    "type_i_feedback",
    "type_ii_feedback",
    "InferenceMixin",
    "argmax_lowest",
    "MachineBase",
    "TsetlinMachine",
    "CyclostationaryRandom",
    "NumpyRandom",
    "TMRandom",
    "XorShift128Plus",
    "make_rng",
    "SearchPoint",
    "SearchResult",
    "search_clause_budget",
]
