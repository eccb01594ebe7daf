"""Dense clause evaluation past 255 violated literals.

A clause fails iff any included literal is 0.  The dense evaluation
sites count violated literals and test the count for zero; counted in
uint8, 256 violations wrap to 0 and the clause reads as fired.  Each
site is checked on a clause that includes ``~x_0 .. ~x_255``, evaluated
on an all-ones row, against the packed-word serving engine.
"""

import numpy as np
import pytest

from repro.model import TMModel
from repro.serving import snapshot_engine
from repro.tsetlin import ConvolutionalTsetlinMachine, TsetlinMachine
from repro.tsetlin.booleanize import literals_from_features

N_FEATURES = 256
N_STATES = 127
ONES = np.ones((1, N_FEATURES), dtype=np.uint8)


def _include():
    """Class 0, clause 0: every negated literal (256 violations on
    ``ONES``); class 1, clause 0: ``x_0`` (fires on ``ONES``)."""
    inc = np.zeros((2, 2, 2 * N_FEATURES), dtype=bool)
    inc[0, 0, N_FEATURES:] = True
    inc[1, 0, 0] = True
    return inc


def _set_includes(machine, inc):
    machine.team.state[:] = np.where(inc, N_STATES + 1, N_STATES)
    machine.backend.sync()
    return machine


def test_tmmodel_class_sums():
    model = TMModel(include=_include(), n_features=N_FEATURES)
    engine = snapshot_engine(model)
    assert engine.class_sums(ONES).tolist() == [[0, 1]]
    assert model.class_sums(ONES).tolist() == [[0, 1]]


def test_reference_batch_outputs():
    tm = _set_includes(TsetlinMachine(2, N_FEATURES, n_clauses=2,
                                      backend="reference"), _include())
    engine = snapshot_engine(tm)
    assert engine.class_sums(ONES).tolist() == [[0, 1]]
    assert tm.class_sums(ONES).tolist() == [[0, 1]]


def _single_patch_ctm(backend):
    # A 16x16 patch on a 16x16 image: one patch, 256 pixel features and
    # no coordinate bits, so the patch literals are the flat literals.
    ctm = ConvolutionalTsetlinMachine(2, (16, 16), patch_shape=(16, 16),
                                      n_clauses=2, backend=backend)
    assert ctm.n_patch_features == N_FEATURES
    return _set_includes(ctm, _include())


def test_reference_patch_match():
    ctm = _single_patch_ctm("reference")
    engine = snapshot_engine(ctm)
    patch = literals_from_features(ONES)  # (1 patch, 2f)
    active = _include().any(axis=2)
    sums = [
        int(np.dot(ctm.backend.patch_match(c, patch).any(axis=0) & active[c],
                   ctm.polarity))
        for c in range(2)
    ]
    assert engine.class_sums(ONES).tolist() == [[0, 1]]
    assert sums == [0, 1]


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_convolutional_clause_outputs_batch(backend):
    ctm = _single_patch_ctm(backend)
    engine = snapshot_engine(ctm)
    assert engine.class_sums(ONES).tolist() == [[0, 1]]
    assert ctm.class_sums(ONES).tolist() == [[0, 1]]
