"""Dense clause evaluation past 255 violated literals.

A clause fails iff any included literal is 0.  The dense evaluation
sites count violated literals and test the count for zero; counted in
uint8, 256 violations wrap to 0 and the clause reads as fired.  Each
site is checked on a clause that includes ``~x_0 .. ~x_255``, evaluated
on an all-ones row, against the packed-word serving engine.
"""

import types

import numpy as np
import pytest

from repro.model import TMModel
from repro.model import model as model_module
from repro.serving import snapshot_engine
from repro.tsetlin import ConvolutionalTsetlinMachine, TsetlinMachine
from repro.tsetlin import feedback
from repro.tsetlin.backend.reference import ReferenceBackend
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


def _uint8_chunk_violations(not_literals, include):
    """The dense count before float32 blocks: uint8 ``einsum`` over at
    most 255 literals at a time, so no count wraps.  The oracle."""
    include = np.asarray(include, dtype=np.uint8)
    violated = np.zeros((len(not_literals),) + include.shape[:2], dtype=bool)
    for lo in range(0, include.shape[2], 255):
        violated |= np.einsum("nf,ckf->nck", not_literals[:, lo:lo + 255],
                              include[:, :, lo:lo + 255]) > 0
    return violated


F = 300  # 2f = 600 literals: counts of 255, 256 and 600 all occur


def _count_include():
    """Two banks of four clauses.  Bank 0 on an all-ones row: 255, 256
    and (with every literal included) 300 violations, and ``x_0`` that
    fires; bank 1 random."""
    inc = np.zeros((2, 4, 2 * F), dtype=bool)
    inc[0, 0, F:F + 255] = True
    inc[0, 1, F:F + 256] = True
    inc[0, 2] = True
    inc[0, 3, 0] = True
    inc[1] = np.random.default_rng(3).random((4, 2 * F)) < 0.2
    return inc


def _rows(n):
    """``n`` feature rows: all ones, all zeros, then random."""
    X = (np.random.default_rng(4).random((7, F)) < 0.5).astype(np.uint8)
    X[:2] = [[1], [0]]
    return X[:n]


@pytest.fixture(params=[None, 1, 3 * 4 * 2 * F],
                ids=["default", "below_one_row", "three_rows"])
def block_bytes(request, monkeypatch):
    """Run with the default block cap, a cap below one float32 row (one
    row per block) and a cap of three rows, so 7 rows and 8 clauses
    split into 3 + 3 + 1 and 3 + 3 + 2."""
    if request.param is not None:
        monkeypatch.setattr(feedback, "DENSE_BLOCK_BYTES", request.param)
    return request.param


def test_any_violated_equals_the_uint8_count(block_bytes):
    inc = _count_include()
    for n in (0, 7):
        not_l = 1 - literals_from_features(_rows(n))
        got = feedback.any_violated(not_l, inc)
        assert got.shape == (n, 2, 4) and got.dtype == bool
        assert np.array_equal(got, _uint8_chunk_violations(not_l, inc))
    # Every literal violated: a count of 2f.
    ones = np.ones((7, 2 * F), dtype=np.uint8)
    assert feedback.any_violated(ones, inc)[:, 0, :3].all()
    assert np.array_equal(feedback.any_violated(ones, inc),
                          _uint8_chunk_violations(ones, inc))
    # One bank, as the convolutional patch test passes it.
    one_bank = inc[1:]
    assert np.array_equal(feedback.any_violated(not_l, one_bank),
                          _uint8_chunk_violations(not_l, one_bank))


def test_tmmodel_class_sums_equal_the_uint8_count(block_bytes, monkeypatch):
    model = TMModel(include=_count_include(), n_features=F)
    X = _rows(7)
    got = model.class_sums(X)
    assert model.class_sums(X[:0]).shape == (0, 2)
    monkeypatch.setattr(model_module, "any_violated", _uint8_chunk_violations)
    assert np.array_equal(got, model.class_sums(X))
    assert got[0, 0] == -1  # on all ones only the x_0 clause (vote -1) fires


def test_reference_patch_match_equals_the_uint8_count(block_bytes):
    inc = _count_include()
    backend = ReferenceBackend(types.SimpleNamespace(actions=lambda: inc))
    patches = literals_from_features(_rows(7))  # one sample's 7 patches
    for c in range(2):
        want = ~_uint8_chunk_violations(1 - patches, inc[c][np.newaxis])[:, 0]
        assert np.array_equal(backend.patch_match(c, patches), want)
    assert backend.patch_match(0, patches[:0]).shape == (0, 4)
