"""Unit tests for the serving subsystem: engine, batcher, registry, checker."""

import numpy as np
import pytest

from _fixtures import random_model
from repro.accelerator import AcceleratorConfig, generate_accelerator
from repro.model import TMModel
from repro.obs import MetricsRegistry
from repro.serving import (
    Batcher,
    ConvolutionalInferenceEngine,
    DifferentialChecker,
    DifferentialMismatch,
    FabricTicket,
    Gateway,
    InferenceEngine,
    ModelNotFound,
    Registry,
    ReplicaPool,
    snapshot_engine,
)
from repro.simulator import CompiledNetlist
from repro.tsetlin import (
    CoalescedTsetlinMachine,
    ConvolutionalTsetlinMachine,
    TsetlinMachine,
)
from repro.tsetlin.backend import packed
from repro.tsetlin.backend.packed import (
    pack_not_literal_words,
    pack_words,
    packed_clause_outputs,
)


def _data(n=40, f=16, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    protos = rng.random((n_classes, f)) < 0.5
    y = rng.integers(0, n_classes, n)
    X = (protos[y] ^ (rng.random((n, f)) < 0.08)).astype(np.uint8)
    return X, y


# ----------------------------------------------------------------------
# InferenceEngine
# ----------------------------------------------------------------------
class TestInferenceEngine:
    def test_matches_model_semantics(self):
        model = random_model(n_classes=4, n_clauses=10, n_features=24, seed=3)
        X = (np.random.default_rng(1).random((50, 24)) < 0.5).astype(np.uint8)
        eng = InferenceEngine.from_model(model)
        assert np.array_equal(eng.class_sums(X), model.class_sums(X))
        assert np.array_equal(eng.predict(X), model.predict(X))

    def test_predict_with_sums_consistent(self):
        model = random_model(seed=7)
        X = (np.random.default_rng(2).random((9, 24)) < 0.5).astype(np.uint8)
        eng = InferenceEngine.from_model(model)
        preds, sums = eng.predict_with_sums(X)
        assert np.array_equal(preds, np.argmax(sums, axis=1))
        assert sums.shape == (9, model.n_classes)

    def test_single_sample_and_counters(self):
        model = random_model(seed=5)
        eng = InferenceEngine.from_model(model)
        x = np.zeros(model.n_features, dtype=np.uint8)
        assert eng.predict(x).shape == (1,)
        assert eng.predict(
            np.zeros((3, model.n_features), dtype=np.uint8)).shape == (3,)

    def test_snapshot_isolated_from_training(self):
        X, y = _data()
        tm = TsetlinMachine(3, 16, n_clauses=8, T=5, seed=1,
                            backend="vectorized")
        tm.fit(X, y, epochs=1)
        eng = snapshot_engine(tm)
        before = eng.predict(X).copy()
        tm.fit(X, y, epochs=4)  # keep training the same machine
        assert np.array_equal(eng.predict(X), before)
        assert not np.array_equal(tm.includes(), eng.include)

    def test_coalesced_served_as_shared_bank(self):
        X, y = _data()
        co = CoalescedTsetlinMachine(3, 16, n_clauses=12, T=5, seed=2,
                                     backend="vectorized")
        co.fit(X, y, epochs=2)
        eng = snapshot_engine(co)
        assert eng.include.shape[0] == 1  # no per-class replication
        assert np.array_equal(eng.predict(X), co.predict(X))
        assert np.array_equal(eng.class_sums(X), co.class_sums(X))
        # ... and also agrees with the replicated export_model artifact.
        model = co.export_model()
        assert np.array_equal(eng.class_sums(X), model.class_sums(X))

    def test_convolutional_engine(self):
        rng = np.random.default_rng(4)
        X = (rng.random((20, 36)) < 0.5).astype(np.uint8)
        y = rng.integers(0, 2, 20)
        ctm = ConvolutionalTsetlinMachine(2, (6, 6), patch_shape=(3, 3),
                                          n_clauses=6, T=4, seed=3)
        ctm.fit(X, y, epochs=1)
        eng = snapshot_engine(ctm)
        assert isinstance(eng, ConvolutionalInferenceEngine)
        assert eng.n_features == 36  # flat image width, not patch features
        assert np.array_equal(eng.class_sums(X), ctm.class_sums(X))
        assert np.array_equal(eng.predict(X), ctm.predict(X))

    def test_validation_errors(self):
        model = random_model(seed=0)
        eng = InferenceEngine.from_model(model)
        with pytest.raises(ValueError, match="boolean features"):
            eng.predict(np.zeros((2, model.n_features + 1), dtype=np.uint8))
        with pytest.raises(ValueError, match="weights"):
            InferenceEngine(model.include, np.zeros((3, 99)), model.n_features)
        with pytest.raises(ValueError, match="banks"):
            InferenceEngine(model.include[:2], np.ones((5, model.n_clauses)),
                            model.n_features)

    @pytest.mark.parametrize("n_features", [31, 32, 33, 64, 65])
    def test_word_boundary_widths_match_dense_model(self, n_features):
        """Literal rows that straddle or exactly fill uint64 words.

        Each half of the literal vector has its last literal included, so
        the final word's pad bits sit next to a live bit.
        """
        rng = np.random.default_rng(n_features)
        include = rng.random((3, 6, 2 * n_features)) < 0.04
        include[:, ::2, n_features - 1] = True        # last feature x_{f-1}
        include[:, 1::2, 2 * n_features - 1] = True   # last NOT x_{f-1}
        model = TMModel(include=include, n_features=n_features)
        X = (rng.random((50, n_features)) < 0.5).astype(np.uint8)
        expected = model.class_sums(X)
        assert np.array_equal(InferenceEngine.from_model(model).class_sums(X),
                              expected)
        tm = TsetlinMachine(3, n_features, n_clauses=6, seed=0,
                            backend="vectorized")
        N = tm.team.n_states
        tm.team.state[...] = np.where(include, N + 1, N)
        tm.backend.sync()
        assert np.array_equal(tm.class_sums(X), expected)

    def test_packed_kernel_rejects_byte_operands(self):
        include = np.eye(4, dtype=bool)
        L = np.ones((2, 4), dtype=bool)
        with pytest.raises(ValueError, match="uint64"):
            packed_clause_outputs(np.packbits(~L, axis=-1),
                                  np.packbits(include, axis=-1))
        with pytest.raises(ValueError, match="uint64"):
            packed_clause_outputs(np.packbits(~L, axis=-1),
                                  pack_words(include))
        assert packed_clause_outputs(pack_not_literal_words(L),
                                     pack_words(include)).all()

    @pytest.mark.parametrize("rows_per_chunk", [3, 0, None])
    def test_packed_kernel_chunk_boundaries(self, monkeypatch,
                                            rows_per_chunk):
        """Chunked evaluation equals the dense model at every split.

        ``rows_per_chunk`` 3 splits a batch of 10 into 3 + 3 + 3 + 1, 0
        sets the cap below one row (one row per chunk), and None keeps
        the default cap, where the whole batch fits in one chunk.
        """
        rng = np.random.default_rng(7)
        include = rng.random((3, 5, 2 * 40)) < 0.03
        include[1, 2] = False                      # an empty clause
        model = TMModel(include=include, n_features=40)
        inc_words = pack_words(include)            # (3, 5, 2) uint64
        if rows_per_chunk is not None:
            row_bytes = inc_words.size * 8
            monkeypatch.setattr(packed, "BATCH_CHUNK_BYTES",
                                max(1, rows_per_chunk * row_bytes))
        nonempty = include.any(axis=2)
        for n in (0, 10):
            X = (rng.random((n, 40)) < 0.5).astype(np.uint8)
            expected = model.clause_outputs(X)     # empty clauses -> 0
            nlw = pack_not_literal_words(np.concatenate([X, 1 - X], axis=1))
            got = packed_clause_outputs(nlw, inc_words, nonempty)
            assert got.shape == (n, 3, 5) and got.dtype == np.uint8
            assert np.array_equal(got, expected)
            flat = packed_clause_outputs(nlw, inc_words.reshape(15, -1),
                                         nonempty.reshape(-1))
            assert np.array_equal(flat, expected.reshape(n, 15))
            # Without the mask, empty clauses output 1.
            expected[:, ~nonempty] = 1
            assert np.array_equal(packed_clause_outputs(nlw, inc_words),
                                  expected)
        assert 0 < expected.sum() < expected.size

    def test_non_binary_features_rejected_everywhere(self):
        include = np.zeros((2, 1, 4), dtype=bool)
        include[0, 0, 0] = True
        include[1, 0, 2] = True
        model = TMModel(include=include, n_features=2, weights=[[1], [1]])
        tm = TsetlinMachine(2, 2, n_clauses=2, T=2, seed=0,
                            backend="vectorized")
        bad = [[2, 0]]
        for serve in (InferenceEngine.from_model(model).class_sums,
                      model.class_sums, tm.class_sums, tm.predict):
            with pytest.raises(ValueError, match="0 or 1"):
                serve(bad)

    def test_gateway_rejects_non_binary_at_submit(self):
        engine = InferenceEngine.from_model(random_model(seed=0))
        X = np.zeros((2, engine.n_features), dtype=np.uint8)
        X[1, 3] = 2
        with ReplicaPool(engine, n_replicas=1, mode="process") as pool:
            gateway = Gateway(pool, max_batch=4)
            with pytest.raises(ValueError, match="0 or 1"):
                gateway.submit(X[1])
            with pytest.raises(ValueError, match="0 or 1"):
                gateway.submit_many(X)
            assert gateway.pending == 0
            ticket = gateway.submit(X[0])
            gateway.flush()
            assert ticket.prediction == engine.predict(X[:1])[0]
            assert all(entry["healthy"]
                       for entry in gateway.health_check().values())

    def test_engine_include_is_frozen(self):
        eng = InferenceEngine.from_model(random_model(seed=1))
        with pytest.raises(ValueError):
            eng.include[0, 0, 0] = True
        with pytest.raises(ValueError):
            eng.weights[0, 0] = 7


# ----------------------------------------------------------------------
# Batcher
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestBatcher:
    """The one-replica inline Gateway: batches are dispatched inside
    submit() and resolve (observers included) at flush/poll/result."""

    def _engine(self, seed=0):
        return InferenceEngine.from_model(random_model(seed=seed))

    def test_size_trigger(self):
        eng = self._engine()
        b = Batcher(eng, max_batch=4, max_delay=None)
        xs = (np.random.default_rng(0).random((7, eng.n_features)) < 0.5
              ).astype(np.uint8)
        tickets = [b.submit(x) for x in xs]
        assert not any(t.done for t in tickets)
        assert b.pending == 7           # 4 dispatched + 3 queued
        assert b.poll() == 4            # the size-triggered batch
        assert [t.done for t in tickets] == [True] * 4 + [False] * 3
        assert b.flush() == 3
        assert all(t.done for t in tickets)
        assert isinstance(tickets[0], FabricTicket)
        assert {(t.replica, t.version) for t in tickets} == {(0, eng.version)}
        assert b.stats.n_batches == 2

    def test_results_match_direct_predict(self):
        eng = self._engine(seed=2)
        model = random_model(seed=2)
        X = (np.random.default_rng(1).random((10, eng.n_features)) < 0.5
             ).astype(np.uint8)
        b = Batcher(eng, max_batch=3, max_delay=None)
        tickets = [b.submit(x) for x in X]
        b.flush()
        assert [t.result() for t in tickets] == model.predict(X).tolist()
        expected_sums = model.class_sums(X)
        for i, t in enumerate(tickets):
            assert np.array_equal(t.class_sums, expected_sums[i])

    def test_deadline_trigger_with_fake_clock(self):
        eng = self._engine()
        clock = FakeClock()
        b = Batcher(eng, max_batch=100, max_delay=0.010, clock=clock)
        x = np.zeros(eng.n_features, dtype=np.uint8)
        t1 = b.submit(x)
        clock.t = 0.005
        t2 = b.submit(x)
        assert b.poll() == 0 and b.pending == 2
        clock.t = 0.011  # oldest (t1) has now waited >= 10ms
        t3 = b.submit(x)
        assert b.poll() == 2             # dispatched before t3 was queued
        assert t1.done and t2.done
        assert not t3.done and b.pending == 1
        assert b.stats.n_batches == 1

    def test_result_forces_flush(self):
        eng = self._engine()
        b = Batcher(eng, max_batch=100, max_delay=None)
        t = b.submit(np.zeros(eng.n_features, dtype=np.uint8))
        assert not t.done
        assert t.result() is not None
        assert t.done and b.pending == 0

    def test_observers_see_served_batches(self):
        eng = self._engine()
        seen = []
        b = Batcher(eng, max_batch=2, max_delay=None,
                    observers=[lambda X, s, p: seen.append((X, s, p))])
        xs = (np.random.default_rng(3).random((4, eng.n_features)) < 0.5
              ).astype(np.uint8)
        for x in xs:
            b.submit(x)
        assert seen == []               # observers run on collection
        b.poll()
        assert len(seen) == 2
        X0, sums0, preds0 = seen[0]
        assert X0.shape == (2, eng.n_features)
        assert sums0.shape == (2, eng.n_classes)
        assert np.array_equal(preds0, np.argmax(sums0, axis=1))

    def test_observer_exception_does_not_drop_the_batch(self):
        # A crashing metrics hook must not propagate out of the serving
        # path or drop the batch it was watching.
        eng = self._engine()
        after = []

        def bad_hook(X, sums, preds):
            raise ValueError("metrics sink unreachable")

        b = Batcher(eng, max_batch=2, max_delay=None,
                    observers=[bad_hook, lambda X, s, p: after.append(len(X))])
        xs = (np.random.default_rng(5).random((4, eng.n_features)) < 0.5
              ).astype(np.uint8)
        tickets = [b.submit(x) for x in xs]
        b.flush()                             # collection does not raise
        assert all(t.done and t.prediction is not None for t in tickets)
        assert after == [2, 2]                # later observers still ran
        assert b.stats.observer_errors == 2
        assert b.observer_errors[0][0] == "bad_hook"
        # The serving loop keeps going after the bad hook.
        assert b.submit(xs[0]).result() is not None

    def test_opted_in_observer_errors_propagate_after_resolution(self):
        # The differential checker's contract: a divergence surfaces, but
        # only after every ticket resolved and every observer ran.
        eng = self._engine()
        others = []

        def diverged(X, sums, preds):
            raise AssertionError("hw != sw")

        diverged.propagate_errors = True
        b = Batcher(eng, max_batch=2, max_delay=None,
                    observers=[diverged, lambda X, s, p: others.append(1)])
        x = np.zeros(eng.n_features, dtype=np.uint8)
        t1 = b.submit(x)
        t2 = b.submit(x)                      # size trigger: dispatched
        with pytest.raises(AssertionError, match="hw != sw"):
            b.flush()
        assert t1.done and t2.done and others == [1]
        assert b.stats.observer_errors == 0   # opted-in errors not swallowed

    def test_second_propagating_observer_error_is_recorded(self):
        # Only one exception can surface from a collection; a second
        # propagating failure on the same batch must leave a trace.
        eng = self._engine()

        def diverged_a(X, sums, preds):
            raise AssertionError("checker A")

        def diverged_b(X, sums, preds):
            raise AssertionError("checker B")

        diverged_a.propagate_errors = True
        diverged_b.propagate_errors = True
        b = Batcher(eng, max_batch=1, max_delay=None,
                    observers=[diverged_a, diverged_b])
        b.submit(np.zeros(eng.n_features, dtype=np.uint8))
        with pytest.raises(AssertionError, match="checker A"):
            b.flush()
        assert b.stats.observer_errors == 1
        assert b.observer_errors[0] == ("diverged_b",
                                        repr(AssertionError("checker B")))

    def test_submit_rejects_batches_and_bad_width(self):
        eng = self._engine()
        b = Batcher(eng)
        with pytest.raises(ValueError, match="single sample"):
            b.submit(np.zeros((2, eng.n_features), dtype=np.uint8))
        with pytest.raises(ValueError, match="features"):
            b.submit(np.zeros(eng.n_features + 1, dtype=np.uint8))
        with pytest.raises(ValueError, match="max_delay"):
            Batcher(eng, max_delay=-0.001)

    def test_flush_on_empty_queue(self):
        b = Batcher(self._engine())
        assert b.flush() == 0
        assert b.stats.n_batches == 0

    def test_context_manager_drains_pending_on_exit(self):
        # Flush-on-shutdown: a with-block leaves no unresolved ticket.
        eng = self._engine()
        with Batcher(eng, max_batch=100, max_delay=None) as b:
            tickets = [b.submit(np.zeros(eng.n_features, dtype=np.uint8))
                       for _ in range(5)]
            assert b.pending == 5
        assert b.pending == 0
        assert all(t.done and t.prediction is not None for t in tickets)
        assert b.stats.n_batches == 1

    def test_context_manager_drains_even_when_body_raises(self):
        eng = self._engine()
        tickets = []
        with pytest.raises(RuntimeError, match="boom"):
            with Batcher(eng, max_batch=100, max_delay=None) as b:
                tickets.append(
                    b.submit(np.zeros(eng.n_features, dtype=np.uint8)))
                raise RuntimeError("boom")
        assert all(t.done for t in tickets)

    def test_stats_dict(self):
        eng = self._engine()
        b = Batcher(eng, max_batch=2, max_delay=None)
        for _ in range(5):
            b.submit(np.zeros(eng.n_features, dtype=np.uint8))
        b.flush()
        d = b.stats.to_dict()
        assert d["requests"] == 5
        assert d["batches"] == 3
        assert d["samples"] == 5
        assert d["observer_errors"] == 0
        assert d["shed"] == 0
        assert d["latency"]["count"] == 5


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_publish_versions_and_pinning(self):
        X, y = _data()
        tm = TsetlinMachine(3, 16, n_clauses=8, T=5, seed=1,
                            backend="vectorized")
        tm.fit(X, y, epochs=1)
        reg = Registry()
        e1 = reg.publish("tm", tm)
        p1 = reg.predict("tm", X)
        tm.fit(X, y, epochs=4)
        e2 = reg.publish("tm", tm)
        assert (e1.version, e2.version) == (1, 2)
        assert reg.versions("tm") == [1, 2]
        assert reg.latest_version("tm") == 2
        # latest serves v2, but v1 stays pinned and unchanged
        assert reg.engine("tm") is e2
        assert np.array_equal(reg.predict("tm", X, version=1), p1)

    def test_multi_model_and_errors(self):
        reg = Registry()
        reg.publish("a", random_model(seed=1, name="a"))
        reg.publish("b", random_model(seed=2, name="b"))
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "zzz" not in reg
        assert len(reg) == 2
        with pytest.raises(ModelNotFound):
            reg.engine("zzz")
        with pytest.raises(ModelNotFound):
            reg.engine("a", version=9)
        with pytest.raises(ModelNotFound):
            reg.versions("zzz")

    def test_retire(self):
        reg = Registry()
        model = random_model(seed=3)
        reg.publish("m", model)
        reg.publish("m", model)
        reg.retire("m", 1)
        assert reg.versions("m") == [2]
        with pytest.raises(ValueError, match="only remaining"):
            reg.retire("m", 2)
        with pytest.raises(ModelNotFound):
            reg.retire("m", 1)

    def test_retire_latest_falls_back_and_never_reuses_numbers(self):
        reg = Registry()
        model = random_model(seed=4)
        e1 = reg.publish("m", model)
        reg.publish("m", model)
        reg.retire("m", 2)  # retiring the latest is allowed...
        assert reg.versions("m") == [1]
        assert reg.latest_version("m") == 1
        assert reg.engine("m") is e1  # ...and resolution falls back cleanly
        # The version counter keeps climbing: 2 is never reissued.
        e3 = reg.publish("m", model)
        assert e3.version == 3
        assert reg.engine("m") is e3

    def test_pin_holds_unversioned_resolution(self):
        reg = Registry()
        model = random_model(seed=5)
        e1 = reg.publish("m", model)
        reg.pin("m", 1)
        e2 = reg.publish("m", model)
        # Unversioned readers stay on the pinned known-good version...
        assert reg.engine("m") is e1
        assert reg.pinned_version("m") == 1
        # ...while explicit lookups and version metadata see everything.
        assert reg.engine("m", version=2) is e2
        assert reg.latest_version("m") == 2
        reg.unpin("m")
        assert reg.engine("m") is e2
        reg.unpin("m")  # idempotent
        with pytest.raises(ModelNotFound):
            reg.pin("m", 9)
        with pytest.raises(ModelNotFound):
            reg.pin("zzz", 1)

    def test_pinned_version_cannot_be_retired(self):
        reg = Registry()
        model = random_model(seed=6)
        reg.publish("m", model)
        reg.publish("m", model)
        reg.pin("m", 1)
        with pytest.raises(ValueError, match="pinned"):
            reg.retire("m", 1)
        reg.retire("m", 2)  # the unpinned one is fair game
        reg.unpin("m")
        assert reg.versions("m") == [1]


# ----------------------------------------------------------------------
# DifferentialChecker
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_serving():
    rng = np.random.default_rng(11)
    X = (rng.random((64, 18)) < 0.5).astype(np.uint8)
    y = rng.integers(0, 3, 64)
    tm = TsetlinMachine(3, 18, n_clauses=6, T=4, seed=6, backend="vectorized")
    tm.fit(X, y, epochs=2)
    model = tm.export_model("diff")
    design = generate_accelerator(model, AcceleratorConfig(name="diff"))
    return model, design, X


class TestDifferentialChecker:
    def test_clean_serving_session(self, small_serving):
        model, design, X = small_serving
        checker = DifferentialChecker(design, fraction=1.0)
        b = Batcher(InferenceEngine.from_model(model), max_batch=8,
                    max_delay=None, observers=[checker])
        for x in X[:24]:
            b.submit(x)
        b.flush()
        assert checker.batches_seen == 3
        assert checker.batches_checked == 3
        assert checker.samples_checked == 24
        assert checker.clean
        assert "OK" in checker.summary()

    def test_first_batch_always_checked(self, small_serving):
        model, design, X = small_serving
        checker = DifferentialChecker(design, fraction=0.0)
        b = Batcher(InferenceEngine.from_model(model), max_batch=8,
                    max_delay=None, observers=[checker])
        for x in X[:24]:
            b.submit(x)
        b.flush()
        assert checker.batches_seen == 3
        assert checker.batches_checked == 1

    def test_prediction_mismatch_raises(self, small_serving):
        model, design, X = small_serving
        checker = DifferentialChecker(design, fraction=1.0)
        sums = model.class_sums(X[:4])
        preds = model.predict(X[:4]).copy()
        preds[0] = (preds[0] + 1) % model.n_classes  # corrupt one lane
        with pytest.raises(DifferentialMismatch, match="diverged"):
            checker(X[:4], sums, preds)
        assert not checker.clean
        assert checker.mismatches[0]["bad_lanes"] == [0]

    def test_winner_sum_mismatch_recorded_without_raise(self, small_serving):
        model, design, X = small_serving
        checker = DifferentialChecker(design, fraction=1.0,
                                      raise_on_mismatch=False)
        sums = model.class_sums(X[:4]).copy()
        preds = model.predict(X[:4])
        sums[1, preds[1]] += 1  # corrupt the winning sum only
        assert checker(X[:4], sums, preds) is False
        rec = checker.mismatches[0]
        assert rec["bad_lanes"] == [1]
        assert rec["hw_predictions"] == rec["sw_predictions"]
        assert "MISMATCH" in checker.summary()

    def test_odd_widths_share_one_compiled_program(self, small_serving,
                                                   monkeypatch):
        """Deadline flushes produce arbitrary batch widths; each replays
        exactly its own lanes, all on the program compiled at
        construction."""
        model, design, X = small_serving
        X = np.concatenate([X, X])  # room for a two-word (65-lane) batch
        compiles = []
        compile_netlist = CompiledNetlist.__init__

        def counting(self, *args, **kwargs):
            compiles.append(1)
            compile_netlist(self, *args, **kwargs)

        monkeypatch.setattr(CompiledNetlist, "__init__", counting)
        checker = DifferentialChecker(design, fraction=1.0)
        program = checker.simulator.sim
        widths = (3, 5, 6, 7, 65)
        for n in widths:
            assert checker(X[:n], model.class_sums(X[:n]),
                           model.predict(X[:n])) is True
            assert program.batch == n  # no padding lanes
        assert checker.samples_checked == sum(widths)
        assert checker.simulator.sim is program
        assert len(compiles) == 1

    def test_metrics_count_samples_mismatches_and_replays(self,
                                                          small_serving):
        model, design, X = small_serving
        registry = MetricsRegistry()
        checker = DifferentialChecker(design, fraction=1.0,
                                      raise_on_mismatch=False,
                                      metrics=registry)
        sums = model.class_sums(X[:6])
        preds = model.predict(X[:6])
        assert checker(X[:6], sums, preds) is True
        bad = preds.copy()
        bad[[1, 4]] = (bad[[1, 4]] + 1) % model.n_classes
        assert checker(X[:6], sums, bad) is False
        assert registry.counter(
            "differential_samples_checked_total").value == 12
        assert registry.counter("differential_mismatches_total").value == 2
        assert registry.histogram("differential_check_seconds").count == 2

    def test_max_lanes_truncation(self, small_serving):
        model, design, X = small_serving
        checker = DifferentialChecker(design, fraction=1.0, max_lanes=4)
        sums = model.class_sums(X[:10])
        preds = model.predict(X[:10])
        assert checker(X[:10], sums, preds) is True
        assert checker.samples_checked == 4

    def test_report_payload(self, small_serving):
        model, design, X = small_serving
        checker = DifferentialChecker(design, fraction=1.0)
        checker(X[:4], model.class_sums(X[:4]), model.predict(X[:4]))
        r = checker.report()
        assert r == {
            "batches_seen": 1,
            "batches_checked": 1,
            "samples_checked": 4,
            "check_fraction_configured": 1.0,
            "mismatched_batches": 0,
            "clean": True,
        }

