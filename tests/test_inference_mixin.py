"""The shared inference mixin and its argmax tie-breaking contract.

The generated argmax tree uses strictly-greater comparisons, so ties must
break toward the **lower** class index everywhere — machine predict,
serving engine, frozen model.  Before the mixin each machine implemented
its own argmax; these tests pin the single shared implementation and the
tie convention on all of them.
"""

import numpy as np
import pytest

from _fixtures import random_model
from repro.model import TMModel
from repro.serving import InferenceEngine, snapshot_engine
from repro.tsetlin import (
    CoalescedTsetlinMachine,
    ConvolutionalTsetlinMachine,
    InferenceMixin,
    MachineBase,
    TsetlinMachine,
    argmax_lowest,
)


def test_argmax_lowest_convention():
    sums = np.array([
        [0, 0, 0],    # full tie -> class 0
        [-1, 5, 5],   # tie between 1 and 2 -> class 1
        [3, 3, 9],    # unique max
        [2, -2, 2],   # tie between 0 and 2 -> class 0
    ])
    assert argmax_lowest(sums).tolist() == [0, 1, 2, 0]


def test_all_machines_share_the_mixin():
    for cls in (TsetlinMachine, CoalescedTsetlinMachine,
                ConvolutionalTsetlinMachine):
        assert issubclass(cls, InferenceMixin)
        # One argmax implementation — no per-machine re-implementation.
        assert cls.predict is InferenceMixin.predict
        assert cls.evaluate is InferenceMixin.evaluate
        assert cls.class_sums is InferenceMixin.class_sums
        # One training loop — fit/partial_fit come from the shared base.
        assert issubclass(cls, MachineBase)
        assert cls.fit is MachineBase.fit
        assert cls.partial_fit is MachineBase.partial_fit


def _tie_include(n_features=4):
    """Include matrix with engineered class sums [-1, +1, +1] on X=1...1.

    Class 0: positive clause empty (pruned), negative clause fires -> -1.
    Classes 1 and 2: identical banks, positive clause fires -> +1.
    The winner must be class 1 (the lower index of the tie).
    """
    include = np.zeros((3, 2, 2 * n_features), dtype=bool)
    include[0, 1, 0] = True  # class 0, odd (negative) clause: feature 0
    include[1, 0, 0] = True  # class 1, even (positive) clause: feature 0
    include[2, 0, 0] = True  # class 2: identical to class 1
    return include


def test_tie_breaking_flat_machine_and_engine_and_model():
    include = _tie_include()
    X = np.ones((1, 4), dtype=np.uint8)

    model = TMModel(include=include, n_features=4, name="tie")
    assert model.class_sums(X).tolist() == [[-1, 1, 1]]
    assert model.predict(X).tolist() == [1]

    tm = TsetlinMachine(3, 4, n_clauses=2, T=2, seed=0, backend="vectorized")
    N = tm.team.n_states
    tm.team.state[:] = np.where(include, N + 1, N)
    tm.backend.sync()
    assert tm.class_sums(X).tolist() == [[-1, 1, 1]]
    assert tm.predict(X).tolist() == [1]

    engine = InferenceEngine.from_model(model)
    assert engine.predict(X).tolist() == [1]


def test_tie_breaking_all_empty_picks_class_zero():
    tm = TsetlinMachine(3, 4, n_clauses=2, T=2, seed=0, backend="vectorized")
    tm.team.state[:] = 1  # everything excluded -> every clause pruned
    tm.backend.sync()
    X = np.ones((2, 4), dtype=np.uint8)
    assert tm.class_sums(X).tolist() == [[0, 0, 0], [0, 0, 0]]
    assert tm.predict(X).tolist() == [0, 0]
    assert snapshot_engine(tm).predict(X).tolist() == [0, 0]


def test_tie_breaking_coalesced_weights():
    co = CoalescedTsetlinMachine(3, 4, n_clauses=1, T=2, seed=0,
                                 backend="vectorized")
    N = co.team.n_states
    co.team.state[:] = N  # exclude all
    co.team.state[0, 0, 0] = N + 1  # single clause includes feature 0
    co.backend.sync()
    co.weights[:] = np.array([[2], [5], [5]], dtype=np.int32)
    X = np.ones((1, 4), dtype=np.uint8)
    assert co.class_sums(X).tolist() == [[2, 5, 5]]
    assert co.predict(X).tolist() == [1]
    assert snapshot_engine(co).predict(X).tolist() == [1]


def test_tie_breaking_convolutional():
    ctm = ConvolutionalTsetlinMachine(3, (3, 3), patch_shape=(2, 2),
                                      n_clauses=2, T=2, seed=0,
                                      backend="vectorized")
    N = ctm.team.n_states
    ctm.team.state[:] = N  # all excluded -> all clauses pruned
    # Classes 0..2: positive clause includes patch pixel 0 (always 1 on an
    # all-ones image), so every class sums to +1 except class 0, where the
    # negative clause also fires and cancels it.
    ctm.team.state[:, 0, 0] = N + 1
    ctm.team.state[0, 1, 0] = N + 1
    ctm.backend.sync()
    X = np.ones((1, 9), dtype=np.uint8)
    assert ctm.class_sums(X).tolist() == [[0, 1, 1]]
    assert ctm.predict(X).tolist() == [1]
    assert snapshot_engine(ctm).predict(X).tolist() == [1]


def test_mixin_vote_weights_shapes():
    tm = TsetlinMachine(3, 4, n_clauses=2, T=2, seed=0)
    assert tm.vote_weights().shape == (3, 2)
    assert tm.vote_weights()[0].tolist() == [1, -1]
    co = CoalescedTsetlinMachine(4, 4, n_clauses=3, T=2, seed=0)
    assert co.vote_weights().shape == (4, 3)
    ctm = ConvolutionalTsetlinMachine(2, (3, 3), patch_shape=(2, 2),
                                      n_clauses=4, T=2, seed=0)
    assert ctm.vote_weights().shape == (2, 4)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_predict_is_argmax_of_class_sums_all_machines(backend):
    """predict() is argmax_lowest(class_sums) on every machine kind and
    backend; reference-vs-vectorized class_sums equality is pinned by
    test_backend_equivalence.py."""
    rng = np.random.default_rng(42)
    X = (rng.random((30, 16)) < 0.5).astype(np.uint8)
    y = rng.integers(0, 3, 30)

    tm = TsetlinMachine(3, 16, n_clauses=6, T=4, seed=1, backend=backend)
    tm.fit(X, y, epochs=1)
    assert np.array_equal(tm.predict(X), argmax_lowest(tm.class_sums(X)))

    co = CoalescedTsetlinMachine(3, 16, n_clauses=5, T=4, seed=2,
                                 backend=backend)
    co.fit(X, y, epochs=1)
    assert np.array_equal(co.predict(X), argmax_lowest(co.class_sums(X)))

    Xi = (rng.random((12, 16)) < 0.5).astype(np.uint8)
    yi = rng.integers(0, 2, 12)
    ctm = ConvolutionalTsetlinMachine(2, (4, 4), patch_shape=(2, 2),
                                      n_clauses=4, T=4, seed=3,
                                      backend=backend)
    ctm.fit(Xi, yi, epochs=1)
    assert np.array_equal(ctm.predict(Xi), argmax_lowest(ctm.class_sums(Xi)))


def test_engine_tie_breaking_matches_model_on_random_ties():
    """Randomized cross-check: wherever sums tie, all paths agree."""
    model = random_model(n_classes=4, n_clauses=6, n_features=10, seed=13)
    rng = np.random.default_rng(0)
    X = (rng.random((200, 10)) < 0.5).astype(np.uint8)
    engine = InferenceEngine.from_model(model)
    sums = model.class_sums(X)
    ties = (sums == sums.max(axis=1, keepdims=True)).sum(axis=1) > 1
    assert np.array_equal(engine.predict(X), model.predict(X))
    assert np.array_equal(model.predict(X), argmax_lowest(sums))
    # The property is only meaningful if ties actually occurred.
    assert ties.any()
