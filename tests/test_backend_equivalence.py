"""Backend equivalence: reference and vectorized must be bit-identical.

The vectorized backend's whole contract is "same trained model, less
time": identical RNG stream consumption, identical automaton arithmetic,
therefore identical include matrices and predictions for a given seed.
These tests pin that contract for all three machine variants and all RNG
kinds, plus the serialization/staleness paths around it.
"""

import numpy as np
import pytest

from repro.tsetlin import (
    AutomataTeam,
    CoalescedTsetlinMachine,
    ConvolutionalTsetlinMachine,
    TsetlinMachine,
    make_rng,
)
from repro.tsetlin.backend import BACKENDS, ReferenceBackend, VectorizedBackend, make_backend


def _dataset(n=60, f=32, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    protos = rng.random((n_classes, f)) < 0.5
    y = rng.integers(0, n_classes, n)
    flip = rng.random((n, f)) < 0.08
    X = (protos[y] ^ flip).astype(np.uint8)
    return X, y


class TestFlatEquivalence:
    @pytest.mark.parametrize("rng_kind", ["numpy", "xorshift", "cyclostationary"])
    def test_bit_identical_training(self, rng_kind):
        # After 1, 2 and 3 epochs: the states an epoch-boundary reader of
        # team.state would see, and the per-epoch accuracies, agree.
        X, y = _dataset()
        for epochs in (1, 2, 3):
            machines = {}
            for backend in ("reference", "vectorized"):
                tm = TsetlinMachine(
                    3, 32, n_clauses=10, T=6, s=3.5,
                    rng=make_rng(rng_kind, seed=11), backend=backend,
                )
                tm.fit(X, y, epochs=epochs)
                machines[backend] = tm
            ref, vec = machines["reference"], machines["vectorized"]
            assert np.array_equal(ref.team.state, vec.team.state)
            assert np.array_equal(ref.includes(), vec.includes())
            assert np.array_equal(ref.predict(X), vec.predict(X))
            assert np.array_equal(ref.class_sums(X), vec.class_sums(X))

    def test_boost_false_also_identical(self):
        X, y = _dataset()
        trained = [
            TsetlinMachine(3, 32, n_clauses=8, T=5, s=4.0, seed=3,
                           boost_true_positive=False, backend=b).fit(X, y, epochs=2)
            for b in ("reference", "vectorized")
        ]
        assert np.array_equal(trained[0].team.state, trained[1].team.state)

    def test_lazy_cache_repair_across_fits(self):
        # Include changes only version and log the touched rows; every
        # stale cached output repairs on its sample's next visit.  Walk
        # the paths that lean on that: a warm start from a converged
        # state, a back-to-back fit that keeps the cache, and a
        # partial_fit on another slice that rebuilds it.
        X, y = _dataset()
        warm = TsetlinMachine(3, 32, n_clauses=10, T=6, s=3.5, seed=5,
                              backend="vectorized")
        warm.fit(X, y, epochs=10)
        machines = {}
        for backend in ("reference", "vectorized"):
            tm = TsetlinMachine(3, 32, n_clauses=10, T=6, s=3.5, seed=9,
                                backend=backend)
            tm.team.state[:] = warm.team.state
            tm.backend.sync()
            machines[backend] = tm
        ref, vec = machines["reference"], machines["vectorized"]

        def step(train):
            for tm in (ref, vec):
                train(tm)
            assert np.array_equal(ref.team.state, vec.team.state)
            assert np.array_equal(ref.includes(), vec.includes())
            assert np.array_equal(ref.class_sums(X), vec.class_sums(X))

        step(lambda tm: tm.fit(X, y, epochs=3))
        cache = vec.backend._out_cache
        base = list(vec.backend._base_ver)
        step(lambda tm: tm.fit(X, y, epochs=3))
        assert vec.backend._out_cache is cache
        # A class logged more than 4 * _LOG_WALK_MAX events in that fit,
        # so its log reset and the full-bank refresh ran beside replay.
        assert vec.backend._base_ver != base
        step(lambda tm: tm.partial_fit(X[35:5:-1], y[35:5:-1]))
        assert vec.backend._out_cache is not cache

    def test_progress_callback_reads_live_state(self):
        # team.state is live during a fit: a reader at each epoch
        # boundary (the last update of the epoch) sees it with no flush,
        # and it matches the reference machine's state.
        X, y = _dataset()
        seen = {}
        for backend in ("reference", "vectorized"):
            tm = TsetlinMachine(3, 32, n_clauses=10, T=6, s=3.5, seed=4,
                                backend=backend)
            states = seen[backend] = []
            update = tm._update_one
            calls = [0]

            def spy(literals, target, lit_index=None, tm=tm, states=states,
                    update=update, calls=calls):
                update(literals, target, lit_index)
                calls[0] += 1
                if calls[0] % len(X) == 0:
                    states.append(tm.team.state.copy())

            tm._update_one = spy
            tm.fit(X, y, epochs=3)
        assert len(seen["vectorized"]) == 3
        for a, b in zip(seen["reference"], seen["vectorized"]):
            assert np.array_equal(a, b)

    @staticmethod
    def _trained_pair():
        X, y = _dataset()
        pair = [TsetlinMachine(3, 32, n_clauses=10, T=6, s=3.5, seed=6,
                               backend=b).fit(X, y, epochs=3)
                for b in ("reference", "vectorized")]
        return X, y, pair[0], pair[1]

    @staticmethod
    def _assert_next_fit_identical(X, y, ref, vec):
        for tm in (ref, vec):
            tm.fit(X, y, epochs=2)
        assert np.array_equal(ref.team.state, vec.team.state)
        assert np.array_equal(ref.includes(), vec.includes())

    def test_sync_keeps_output_cache_when_includes_unchanged(self):
        X, y, ref, vec = self._trained_pair()
        be = vec.backend
        cache, sample_vers = be._out_cache, [list(v) for v in be._samp_ver]
        assert cache is not None
        N = vec.team.n_states
        before = vec.team.state.copy()
        for tm in (ref, vec):
            # Deepen every automaton one state on its own side of N:
            # states move, no include flips.
            st = tm.team.state
            st[(st > 1) & (st <= N)] -= 1
            st[(st > N) & (st < 2 * N)] += 1
        assert not np.array_equal(vec.team.state, before)
        be.sync()
        assert be._out_cache is cache
        assert be._samp_ver == sample_vers
        self._assert_next_fit_identical(X, y, ref, vec)

    def test_sync_rebuilds_output_cache_on_include_flip(self):
        X, y, ref, vec = self._trained_pair()
        be = vec.backend
        N = vec.team.n_states
        for tm in (ref, vec):
            st = tm.team.state
            st[0, 0] = np.where(st[0, 0] > N, N, N + 1)  # flip a clause
        assert not np.array_equal(be.includes(), vec.team.state > N)
        be.sync()
        assert np.array_equal(be.includes(), vec.team.state > N)
        assert all(v == 0 for vers in be._samp_ver for v in vers)
        self._assert_next_fit_identical(X, y, ref, vec)

    def test_training_log_matches(self):
        # The per-epoch training accuracy agrees across backends: one
        # one-epoch fit at a time, scored after each.
        X, y = _dataset()
        logs = []
        for b in ("reference", "vectorized"):
            tm = TsetlinMachine(3, 32, n_clauses=8, T=5, seed=2, backend=b)
            logs.append([tm.fit(X, y, epochs=1).evaluate(X, y)
                         for _ in range(2)])
        assert logs[0] == logs[1]


class TestCoalescedEquivalence:
    def test_bit_identical_training(self):
        X, y = _dataset()
        machines = [
            CoalescedTsetlinMachine(3, 32, n_clauses=14, T=8, seed=21,
                                    backend=b).fit(X, y, epochs=3)
            for b in ("reference", "vectorized")
        ]
        assert np.array_equal(machines[0].team.state, machines[1].team.state)
        assert np.array_equal(machines[0].weights, machines[1].weights)
        assert np.array_equal(machines[0].predict(X), machines[1].predict(X))


class TestConvolutionalEquivalence:
    def test_bit_identical_training(self):
        rng = np.random.default_rng(5)
        X = (rng.random((30, 64)) < 0.5).astype(np.uint8)
        y = rng.integers(0, 2, 30)
        machines = [
            ConvolutionalTsetlinMachine(2, (8, 8), patch_shape=(5, 5),
                                        n_clauses=8, T=6, seed=13,
                                        backend=b).fit(X, y, epochs=2)
            for b in ("reference", "vectorized")
        ]
        assert np.array_equal(machines[0].team.state, machines[1].team.state)
        assert np.array_equal(machines[0].predict(X), machines[1].predict(X))


class TestBackendPlumbing:
    def test_registry_and_factory(self):
        assert set(BACKENDS) >= {"reference", "vectorized"}
        team = AutomataTeam((2, 4, 8), n_states=9)
        assert isinstance(make_backend("reference", team), ReferenceBackend)
        assert isinstance(make_backend(VectorizedBackend, team), VectorizedBackend)
        be = VectorizedBackend(team)
        assert make_backend(be, team) is be
        with pytest.raises(ValueError):
            make_backend("no-such-backend", team)
        with pytest.raises(ValueError):
            make_backend(be, AutomataTeam((2, 4, 8), n_states=9))

    def test_batch_outputs_agree_on_random_state(self):
        team = AutomataTeam((3, 6, 16), n_states=5, rng=make_rng("numpy", 4))
        ref = ReferenceBackend(team)
        vec = VectorizedBackend(team)
        L = np.random.default_rng(0).random((9, 16)) < 0.5
        for empty in (0, 1):
            assert np.array_equal(
                ref.batch_outputs(L, empty_output=empty),
                vec.batch_outputs(L, empty_output=empty),
            )

    def test_vectorized_sync_after_external_mutation(self):
        team = AutomataTeam((2, 4, 12), n_states=7, rng=make_rng("numpy", 8))
        vec = VectorizedBackend(team)
        team.state[:] = 2 * team.n_states  # all include, behind the cache
        assert not vec.includes().all()  # cache is stale by design
        vec.sync()
        assert vec.includes().all()


class TestSerializationRoundTrip:
    def test_automata_team_round_trip(self):
        team = AutomataTeam((3, 6, 10), n_states=31, rng=make_rng("numpy", 17))
        team.state[1, 2, 3] = 60
        clone = AutomataTeam.from_dict(team.to_dict())
        assert clone.n_states == team.n_states
        assert clone.shape == team.shape
        assert clone.state.dtype == team.state.dtype
        assert np.array_equal(clone.state, team.state)

    def test_trained_state_round_trips_through_backend(self):
        X, y = _dataset()
        tm = TsetlinMachine(3, 32, n_clauses=8, T=5, seed=2,
                            backend="vectorized")
        tm.fit(X, y, epochs=2)
        clone = TsetlinMachine(3, 32, n_clauses=8, T=5, seed=999,
                               backend="vectorized")
        clone.team.state[:] = AutomataTeam.from_dict(tm.team.to_dict()).state
        clone.backend.sync()
        assert np.array_equal(clone.includes(), tm.includes())
        assert np.array_equal(clone.predict(X), tm.predict(X))
