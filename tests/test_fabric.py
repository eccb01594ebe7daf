"""Fabric tests: pool, routing, gateway, failover, rolling promotion e2e.

The deterministic contracts run on inline replicas (no processes, exact
dispatch points); a smaller section drives real worker processes through
the same paths, including killing a worker mid-traffic to exercise
in-flight failover.  The rolling-promotion end-to-end test is the
acceptance check: v1 -> v2 across every replica with zero dropped
requests, then a fleet-wide rollback to v1.
"""

import multiprocessing
import signal

import numpy as np
import pytest

from _fixtures import random_model
from repro.serving import fabric
from repro.serving import (
    Backpressure,
    Gateway,
    InferenceEngine,
    Registry,
    ReplicaError,
    ReplicaPool,
)
from repro.streaming import Promoter


def _engine(seed=0, version=1, **kwargs):
    return InferenceEngine.from_model(random_model(seed=seed, **kwargs),
                                      version=version)


def _traffic(engine, n, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.random((n, engine.n_features)) < 0.5).astype(np.uint8)


# ----------------------------------------------------------------------
# ReplicaPool
# ----------------------------------------------------------------------
class TestReplicaPool:
    def test_inline_pool_shape_and_versions(self):
        engine = _engine(version=3)
        with ReplicaPool(engine, n_replicas=3, mode="inline") as pool:
            assert len(pool) == 3
            assert pool.versions() == [3, 3, 3]
            assert [r.index for r in pool.healthy()] == [0, 1, 2]

    def test_from_registry_serves_published_snapshot(self):
        registry = Registry()
        registry.publish("m", random_model(seed=2))
        pool = ReplicaPool.from_registry(registry, "m", n_replicas=2,
                                         mode="inline")
        assert pool.versions() == [1, 1]
        assert pool.engine is registry.engine("m")

    def test_validation(self):
        engine = _engine()
        with pytest.raises(ValueError):
            ReplicaPool(engine, n_replicas=0, mode="inline")
        with pytest.raises(ValueError):
            ReplicaPool(engine, n_replicas=1, mode="threads")
        with pytest.raises(ValueError):
            ReplicaPool(engine, n_replicas=1, mode="inline", max_batch=0)


# ----------------------------------------------------------------------
# Gateway: routing, dispatch, results
# ----------------------------------------------------------------------
class TestGateway:
    def test_results_match_direct_engine_predict(self):
        engine = _engine()
        pool = ReplicaPool(engine, n_replicas=3, mode="inline")
        gateway = Gateway(pool, max_batch=4)
        X = _traffic(engine, 26)
        tickets = gateway.submit_many(X)
        gateway.flush()
        expected = engine.predict(X)
        assert [t.prediction for t in tickets] == expected.tolist()
        sums = engine.class_sums(X)
        for i, t in enumerate(tickets):
            assert np.array_equal(t.class_sums, sums[i])
            assert t.version == engine.version

    def test_round_robin_covers_every_replica(self):
        engine = _engine()
        gateway = Gateway(ReplicaPool(engine, 3, mode="inline"), max_batch=2)
        tickets = gateway.submit_many(_traffic(engine, 12))
        gateway.flush()
        by_replica = {t.replica for t in tickets}
        assert by_replica == {0, 1, 2}
        assert gateway.stats.n_samples == 12

    def test_keyed_routing_is_deterministic_and_sticky(self):
        engine = _engine()
        gateway = Gateway(ReplicaPool(engine, 3, mode="inline"), max_batch=64)
        X = _traffic(engine, 9)
        tickets = gateway.submit_many(X, keys=[7] * 9)
        gateway.flush()
        assert {t.replica for t in tickets} == {7 % 3}

    def test_keyed_routing_fails_over_past_unhealthy(self):
        engine = _engine()
        pool = ReplicaPool(engine, 3, mode="inline")
        pool.replicas[1].healthy = False
        gateway = Gateway(pool, max_batch=4)
        tickets = gateway.submit_many(_traffic(engine, 8), keys=[1] * 8)
        gateway.flush()
        assert {t.replica for t in tickets} == {2}  # 1 -> probe -> 2
        assert gateway.stats.failovers == 8

    def test_no_healthy_replica_raises(self):
        engine = _engine()
        pool = ReplicaPool(engine, 2, mode="inline")
        for r in pool.replicas:
            r.healthy = False
        gateway = Gateway(pool, max_batch=4)
        with pytest.raises(ReplicaError):
            gateway.submit(_traffic(engine, 1)[0])

    def test_size_trigger_dispatches_without_flush(self):
        engine = _engine()
        gateway = Gateway(ReplicaPool(engine, 1, mode="inline"), max_batch=3)
        tickets = gateway.submit_many(_traffic(engine, 3), keys=[0, 0, 0])
        # Size trigger dispatched; inline replicas compute on dispatch,
        # the tickets resolve on collection during flush.
        assert gateway.pending == 3
        gateway.flush()
        assert all(t.done for t in tickets)

    def test_ticket_result_forces_flush(self):
        engine = _engine()
        gateway = Gateway(ReplicaPool(engine, 2, mode="inline"), max_batch=64)
        ticket = gateway.submit(_traffic(engine, 1)[0])
        assert not ticket.done
        assert ticket.result() is not None
        assert ticket.done

    def test_submit_validation(self):
        engine = _engine()
        gateway = Gateway(ReplicaPool(engine, 2, mode="inline"))
        with pytest.raises(ValueError):
            gateway.submit(_traffic(engine, 2))         # batch into submit()
        with pytest.raises(ValueError):
            gateway.submit(np.zeros(5, dtype=np.uint8))  # wrong width
        with pytest.raises(ValueError):
            gateway.submit_many(np.zeros((2, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            gateway.submit_many(_traffic(engine, 2), keys=[1])

    def test_negative_max_delay_rejected(self):
        engine = _engine()
        with pytest.raises(ValueError, match="max_delay"):
            Gateway(ReplicaPool(engine, 2, mode="inline"), max_delay=-0.5)
        assert Gateway(ReplicaPool(engine, 1, mode="inline"),
                       max_delay=0.0).max_delay == 0.0

    def test_deadline_dispatches_every_queue_not_just_the_routed_one(self):
        # Sticky routing must not let another replica's sub-max_batch
        # tail wait past the deadline: every queue's oldest request is
        # checked on every submit, not just the routed one.
        engine = _engine()
        clock = iter([0.0, 0.5, 0.5]).__next__
        gateway = Gateway(ReplicaPool(engine, 2, mode="inline"),
                          max_batch=64, max_delay=0.1, clock=clock)
        stale = gateway.submit(_traffic(engine, 1)[0], key=1)   # replica 1
        fresh = gateway.submit(_traffic(engine, 1)[0], key=0)   # replica 0
        # Submitting to replica 0 at t=0.5 dispatched replica 1's queue.
        gateway._collect_from(gateway.pool.replicas[1])
        assert stale.done and stale.replica == 1
        assert not fresh.done

    def test_pending_counter_tracks_queue_and_inflight(self):
        engine = _engine()
        gateway = Gateway(ReplicaPool(engine, 2, mode="inline"), max_batch=4)
        gateway.submit_many(_traffic(engine, 10))
        assert gateway.pending == 10    # 8 dispatched (in flight) + 2 queued
        gateway.flush()
        assert gateway.pending == 0

    def test_context_manager_flushes(self):
        engine = _engine()
        with Gateway(ReplicaPool(engine, 2, mode="inline"),
                     max_batch=64) as gateway:
            tickets = gateway.submit_many(_traffic(engine, 5))
        assert all(t.done for t in tickets)


class TestBackpressure:
    def test_error_policy_raises_when_full(self):
        engine = _engine()
        gateway = Gateway(ReplicaPool(engine, 2, mode="inline", max_batch=8),
                          max_batch=8, max_queue=4, overflow="error")
        X = _traffic(engine, 10)
        with pytest.raises(Backpressure):
            gateway.submit_many(X)
        assert gateway.pending <= 4

    def test_wait_policy_bounds_pending_and_drops_nothing(self):
        engine = _engine()
        gateway = Gateway(ReplicaPool(engine, 2, mode="inline", max_batch=4),
                          max_batch=4, max_queue=6, overflow="wait")
        X = _traffic(engine, 50)
        tickets = gateway.submit_many(X)
        assert gateway.pending <= 6
        gateway.flush()
        expected = engine.predict(X)
        assert [t.prediction for t in tickets] == expected.tolist()


class TestGatewayObservers:
    def test_observers_see_every_collected_batch(self):
        engine = _engine()
        seen = []
        gateway = Gateway(
            ReplicaPool(engine, 2, mode="inline"), max_batch=4,
            observers=[lambda X, s, p: seen.append(len(X))],
        )
        gateway.submit_many(_traffic(engine, 10))
        gateway.flush()
        assert sum(seen) == 10

    def test_observer_errors_are_isolated(self):
        engine = _engine()
        calls = []

        def bad(X, sums, preds):
            raise RuntimeError("metrics backend down")

        gateway = Gateway(
            ReplicaPool(engine, 2, mode="inline"), max_batch=4,
            observers=[bad, lambda X, s, p: calls.append(len(X))],
        )
        tickets = gateway.submit_many(_traffic(engine, 8))
        gateway.flush()
        assert all(t.done for t in tickets)
        assert sum(calls) == 8          # the healthy observer still ran
        assert gateway.stats.observer_errors == gateway.stats.n_batches
        assert gateway.observer_errors


# ----------------------------------------------------------------------
# Process-mode fabric
# ----------------------------------------------------------------------
class TestProcessFabric:
    def test_process_replicas_match_inline_results(self):
        engine = _engine()
        X = _traffic(engine, 20)
        with ReplicaPool(engine, n_replicas=2, mode="process") as pool:
            gateway = Gateway(pool, max_batch=8)
            tickets = gateway.submit_many(X)
            gateway.flush()
            assert [t.prediction for t in tickets] == \
                engine.predict(X).tolist()
            report = gateway.health_check()
        assert all(entry["healthy"] for entry in report.values())
        # Worker-side counts come from each worker's metrics registry.
        assert sum(entry["samples"] for entry in report.values()) == 20
        assert sum(entry["batches"] for entry in report.values()) > 0

    def test_dead_worker_fails_over_without_dropping_requests(self):
        engine = _engine()
        X = _traffic(engine, 12)
        with ReplicaPool(engine, n_replicas=2, mode="process") as pool:
            gateway = Gateway(pool, max_batch=4)
            victim = pool.replicas[0]
            victim._proc.terminate()
            victim._proc.join(timeout=5.0)
            tickets = gateway.submit_many(X, keys=[0] * len(X))
            gateway.flush()
            assert all(t.done for t in tickets)
            assert {t.replica for t in tickets} == {1}
            assert not victim.healthy
            assert gateway.stats.failovers + gateway.stats.rerouted_batches > 0

    def test_inflight_work_is_rerouted_when_worker_dies(self):
        engine = _engine()
        X = _traffic(engine, 4)
        with ReplicaPool(engine, n_replicas=2, mode="process") as pool:
            gateway = Gateway(pool, max_batch=4)
            tickets = gateway.submit_many(X, keys=[0] * 4)  # dispatched to 0
            victim = pool.replicas[0]
            victim._proc.terminate()
            victim._proc.join(timeout=5.0)
            # Force the collect path to discover the death: drain the OS
            # pipe by collecting, which raises inside and reroutes.
            gateway.flush()
            assert all(t.done for t in tickets)
            assert [t.prediction for t in tickets] == \
                engine.predict(X).tolist()

    def test_rolling_swap_in_process_mode(self):
        v1 = _engine(version=1)
        v2 = InferenceEngine.from_model(random_model(seed=9), version=2)
        with ReplicaPool(v1, n_replicas=2, mode="process") as pool:
            gateway = Gateway(pool, max_batch=4)
            before = gateway.submit_many(_traffic(v1, 6))
            events = gateway.rolling_swap(v2)
            assert [e["version"] for e in events] == [2, 2]
            assert pool.versions() == [2, 2]
            # Requests accepted before the roll resolved on v1.
            assert all(t.done and t.version == 1 for t in before)
            after = gateway.submit_many(_traffic(v1, 6))
            gateway.flush()
            assert {t.version for t in after} == {2}


# ----------------------------------------------------------------------
# Zero-copy shared-memory transport
# ----------------------------------------------------------------------
def _ring_names(pool):
    """Shared-memory segment names owned by a pool's replicas."""
    return [
        name
        for replica in pool.replicas
        if replica.kind == "process"
        for name in replica._ring.spec()["names"]
    ]


def _segment_exists(name):
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


class TestZeroCopyTransport:
    def test_shm_transport_engages_and_matches_inline(self):
        engine = _engine()
        X = _traffic(engine, 40)
        with ReplicaPool(engine, n_replicas=2, mode="process",
                         max_batch=8) as pool:
            assert _ring_names(pool)
            gateway = Gateway(pool, max_batch=8)
            tickets = gateway.submit_many(X)
            gateway.flush()
            assert [t.prediction for t in tickets] == \
                engine.predict(X).tolist()

    def test_burst_past_ring_capacity_completes(self):
        # Regression: a burst that overflowed the 8-slot ring used to go
        # out as pickled pipe messages, and with wide enough rows parent
        # and worker both blocked in send() — the flush never returned.
        engine = InferenceEngine.from_model(
            random_model(seed=5, n_classes=10, n_features=784), version=1)
        X = _traffic(engine, 4096)

        def hung(signum, frame):
            # Kill the worker first so closing the pool cannot block too.
            for child in multiprocessing.active_children():
                if child.name.startswith("fabric-replica-"):
                    child.kill()
            # pytest.fail raises a BaseException, which the fabric's
            # OSError handlers around send() cannot swallow.
            pytest.fail("4096-row burst did not finish within 30 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with ReplicaPool(engine, n_replicas=1, mode="process",
                             max_batch=32) as pool:
                gateway = Gateway(pool, max_batch=32, max_queue=4096)
                tickets = gateway.submit_many(X)
                gateway.flush()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [t.prediction for t in tickets] == engine.predict(X).tolist()

    def test_full_ring_reads_oldest_result_before_dispatch(self):
        engine = _engine()
        batches = [_traffic(engine, 4, seed=s) for s in range(12)]
        with ReplicaPool(engine, n_replicas=1, mode="process",
                         max_batch=4) as pool:
            replica = pool.replicas[0]
            for req_id, X in enumerate(batches, start=1):
                replica.dispatch(req_id, X)
                assert len(replica._pending) <= fabric.RING_SLOTS
            assert replica.outstanding == 12
            for req_id, X in enumerate(batches, start=1):
                got_id, preds, sums, version = replica.collect()
                assert got_id == req_id
                assert preds.tolist() == engine.predict(X).tolist()
                assert version == 1
            assert replica.outstanding == 0

    def test_oversize_batch_recreates_ring(self):
        engine = _engine()
        small, X = _traffic(engine, 3, seed=2), _traffic(engine, 12)
        with ReplicaPool(engine, n_replicas=1, mode="process",
                         max_batch=4) as pool:
            replica = pool.replicas[0]
            old_names = _ring_names(pool)
            replica.dispatch(1, small)          # in flight on the old ring
            replica.dispatch(2, X)              # 12 rows > 4-row slots
            assert replica._ring.max_rows == 12
            assert not any(_segment_exists(n) for n in old_names)
            assert all(_segment_exists(n) for n in _ring_names(pool))
            req_id, preds, _, _ = replica.collect()
            assert req_id == 1
            assert preds.tolist() == engine.predict(small).tolist()
            req_id, preds, _, _ = replica.collect()
            assert req_id == 2
            assert preds.tolist() == engine.predict(X).tolist()

    def test_geometry_changing_swap_recreates_ring(self):
        v1 = _engine(version=1)
        wide = InferenceEngine.from_model(
            random_model(seed=3, n_features=v1.n_features + 2,
                         n_classes=v1.n_classes + 1), version=2)
        X = _traffic(wide, 10)
        with ReplicaPool(v1, n_replicas=1, mode="process",
                         max_batch=8) as pool:
            replica = pool.replicas[0]
            old_names = _ring_names(pool)
            replica.swap(wide)
            ring = replica._ring
            assert (ring.n_features, ring.n_classes) == \
                (wide.n_features, wide.n_classes)
            assert not any(_segment_exists(n) for n in old_names)
            replica.dispatch(1, X)
            _, preds, sums, version = replica.collect()
            assert preds.tolist() == wide.predict(X).tolist()
            assert sums.shape == (len(X), wide.n_classes)
            assert version == 2
            v3 = _engine(version=3)             # original geometry again
            X3 = _traffic(v3, 5)
            replica.swap(v3)
            replica.dispatch(2, X3)
            assert replica.collect()[1].tolist() == v3.predict(X3).tolist()

    def test_close_unlinks_every_segment(self):
        with ReplicaPool(_engine(), n_replicas=2, mode="process",
                         max_batch=8) as pool:
            names = _ring_names(pool)
            assert all(_segment_exists(n) for n in names)
        assert not any(_segment_exists(n) for n in names)

    def test_close_unlinks_segments_of_worker_killed_mid_batch(self):
        engine = _engine()
        X = _traffic(engine, 8)
        with ReplicaPool(engine, n_replicas=2, mode="process",
                         max_batch=8) as pool:
            names = _ring_names(pool)
            gateway = Gateway(pool, max_batch=8)
            tickets = gateway.submit_many(X, keys=[0] * len(X))
            victim = pool.replicas[0]  # holds the in-flight shm batch
            victim._proc.kill()
            victim._proc.join(timeout=5.0)
            gateway.flush()  # failover reroutes off the parent-side copy
            assert [t.prediction for t in tickets] == \
                engine.predict(X).tolist()
            # The first reply can race ahead of the SIGKILL; a second
            # round routed at the victim must detect the death, fail
            # over, and still answer every request.
            again = gateway.submit_many(X, keys=[0] * len(X))
            gateway.flush()
            assert [t.prediction for t in again] == \
                engine.predict(X).tolist()
            assert not victim.healthy
        # Both rings — the dead worker's included — must be unlinked.
        assert not any(_segment_exists(n) for n in names)


# ----------------------------------------------------------------------
# Rolling promotion end-to-end (the acceptance scenario)
# ----------------------------------------------------------------------
class TestRollingPromotionE2E:
    def _fleet(self, n_replicas=3):
        champion = random_model(seed=4, name="fleet")
        challenger = random_model(seed=11, name="fleet")
        registry = Registry()
        registry.publish("fleet", champion)
        pool = ReplicaPool.from_registry(registry, "fleet",
                                         n_replicas=n_replicas, mode="inline")
        gateway = Gateway(pool, max_batch=4)
        promoter = Promoter(registry, "fleet", gateway)
        return champion, challenger, registry, pool, gateway, promoter

    def test_v1_to_v2_across_all_replicas_with_zero_drops(self):
        champion, challenger, registry, pool, gateway, promoter = self._fleet()
        X = _traffic(pool.engine, 40)
        # Labels follow the challenger: the shadow gate must promote.
        y = challenger.predict(X)

        pre = gateway.submit_many(X[:10])       # resolved before the roll
        mid = gateway.submit_many(X[10:16])     # queued when the roll starts
        record = promoter.promote(challenger, X, y)

        assert record["promoted"] is True
        assert record["new_version"] == 2
        assert [e["replica"] for e in record["roll"]] == [0, 1, 2]
        assert pool.versions() == [2, 2, 2]
        assert registry.engine("fleet").version == 2

        # Zero dropped requests: everything accepted before/during the
        # promotion resolved, on the old snapshot.
        for ticket in pre + mid:
            assert ticket.done
            assert ticket.version == 1
        assert gateway.stats.n_samples == 16

        # Post-promotion traffic is served by v2 on every replica.
        post = gateway.submit_many(X[16:40])
        gateway.flush()
        assert {t.version for t in post} == {2}
        assert {t.replica for t in post} == {0, 1, 2}
        assert [t.prediction for t in post] == \
            challenger.predict(X[16:40]).tolist()

    def test_fleet_wide_rollback_restores_v1_everywhere(self):
        champion, challenger, registry, pool, gateway, promoter = self._fleet()
        X = _traffic(pool.engine, 30)
        promoter.promote(challenger, X, challenger.predict(X))
        assert pool.versions() == [2, 2, 2]

        inflight = gateway.submit_many(X[:5])
        record = promoter.rollback()
        assert record["restored_version"] == 1
        assert [e["version"] for e in record["roll"]] == [1, 1, 1]
        assert pool.versions() == [1, 1, 1]
        assert registry.pinned_version("fleet") == 1
        # The retracted version stays queryable (audit trail) but
        # unversioned resolution pins to the restored champion.
        assert registry.versions("fleet") == [1, 2]
        assert registry.engine("fleet").version == 1
        # Requests accepted before the rollback resolved on v2 (no drops).
        assert all(t.done and t.version == 2 for t in inflight)

        after = gateway.submit_many(X[5:10])
        gateway.flush()
        assert {t.version for t in after} == {1}
        assert [t.prediction for t in after] == \
            champion.predict(X[5:10]).tolist()

    def test_rejected_challenger_leaves_fleet_untouched(self):
        champion, challenger, registry, pool, gateway, promoter = self._fleet()
        X = _traffic(pool.engine, 30)
        y = champion.predict(X)                 # labels follow the champion
        record = promoter.promote(challenger, X, y)
        assert record["promoted"] is False
        assert "roll" not in record
        assert pool.versions() == [1, 1, 1]
        assert registry.versions("fleet") == [1]

    def test_mismatch_during_roll_drain_restores_fleet_and_repins(self):
        # A propagating observer (the differential checker's contract)
        # raising while a replica's queue is drained mid-roll must not
        # leave the fleet split across versions or the registry pointing
        # at the refused challenger.
        champion, challenger, registry, pool, gateway, promoter = self._fleet()
        X = _traffic(pool.engine, 10)

        def diverged(Xb, sums, preds):
            raise AssertionError("hw != sw")

        diverged.propagate_errors = True
        gateway.add_observer(diverged)
        # Queue work on replica 1 so the roll's drain of replica 1 (after
        # replica 0 was already promoted) trips the observer.
        queued = gateway.submit_many(X[:3], keys=[1, 1, 1])
        with pytest.raises(AssertionError, match="hw != sw"):
            promoter.promote(challenger, X, challenger.predict(X))

        # Tickets resolved before the observer fired: zero drops, on v1.
        assert all(t.done and t.version == 1 for t in queued)
        # Fleet uniformly restored to v1; no replica quarantined (the
        # model diverged, not the workers).
        assert pool.versions() == [1, 1, 1]
        assert pool.engine.version == 1
        assert all(r.healthy for r in pool.replicas)
        # Registry resolution matches what the fleet serves.
        assert registry.versions("fleet") == [1, 2]
        assert registry.engine("fleet").version == 1

    def test_failed_roll_restores_old_version_on_swapped_replicas(self):
        champion, challenger, registry, pool, gateway, promoter = self._fleet()
        X = _traffic(pool.engine, 10)

        # Replica 1's swap blows up mid-roll.
        original_swap = pool.replicas[1].swap

        def exploding_swap(engine):
            raise ReplicaError("swap wedged")

        pool.replicas[1].swap = exploding_swap
        with pytest.raises(ReplicaError):
            promoter.promote(challenger, X, challenger.predict(X))
        pool.replicas[1].swap = original_swap

        # Replica 0 (already promoted) was rolled back; 1 is quarantined.
        assert pool.replicas[0].version == 1
        assert not pool.replicas[1].healthy
        assert pool.replicas[2].version == 1
        assert pool.engine.version == 1
        # Registry stays consistent with the fleet: the refused v2 is
        # published (audit trail) but the champion is re-pinned, so
        # unversioned readers resolve to what is actually served.
        assert registry.versions("fleet") == [1, 2]
        assert registry.pinned_version("fleet") == 1
        assert registry.engine("fleet").version == 1
        # Nothing half-promoted to roll back.
        with pytest.raises(RuntimeError, match="no promotion"):
            promoter.rollback()
        # The fleet still serves (around the quarantined replica).
        tickets = gateway.submit_many(X)
        gateway.flush()
        assert all(t.done and t.version == 1 for t in tickets)


# ----------------------------------------------------------------------
# Construction-failure leak regressions
# ----------------------------------------------------------------------
def _kaboom_host_loop(conn, engine, ring_spec):
    """Worker body that fails the ring-attach handshake instead of serving."""
    conn.send(("error", "attach kaboom"))
    conn.close()


class TestConstructionLeaks:
    def test_pool_init_failure_closes_started_replicas(self, monkeypatch):
        # Regression: a replica that fails to construct used to abandon
        # the already-started workers (and their /dev/shm rings) because
        # the list comprehension building self.replicas never ran close.
        engine = _engine()
        created = []  # (replica, ring segment names at construction)

        class ThirdReplicaFails(fabric.ProcessReplica):
            def __init__(self, index, engine, **kwargs):
                if index == 2:
                    raise RuntimeError("replica 2 spawn blew up")
                super().__init__(index, engine, **kwargs)
                created.append((self, self._ring.spec()["names"]))

        monkeypatch.setattr(fabric, "ProcessReplica", ThirdReplicaFails)
        with pytest.raises(RuntimeError, match="spawn blew up"):
            ReplicaPool(engine, n_replicas=3, mode="process", max_batch=8)
        assert len(created) == 2
        for replica, _ in created:
            assert not replica._proc.is_alive()
            assert replica._conn.closed
        leaked = [n for _, names in created for n in names
                  if _segment_exists(n)]
        assert leaked == []

    def test_failed_handshake_reaps_worker_pipe_and_ring(self, monkeypatch):
        # Regression: a ring-attach handshake that came back as an error
        # used to destroy only the ring, leaking the started worker
        # process and the parent pipe end.
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            pytest.skip("monkeypatched worker body needs fork inheritance")
        engine = _engine()
        names = []

        class SpyRing(fabric._ShmRing):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                names.extend(self.spec()["names"])

        monkeypatch.setattr(fabric, "_ShmRing", SpyRing)
        monkeypatch.setattr(fabric, "_host_loop", _kaboom_host_loop)
        with pytest.raises(ReplicaError, match="attach kaboom"):
            fabric.ProcessReplica(7, engine, max_rows=8)
        assert names and not any(_segment_exists(n) for n in names)
        assert not any(
            p.name == "fabric-replica-7" and p.is_alive()
            for p in multiprocessing.active_children()
        )


# ----------------------------------------------------------------------
# Metric drift + context-manager regressions
# ----------------------------------------------------------------------
class TestMetricAndExitRegressions:
    def test_dispatch_time_failover_is_counted(self):
        # Regression: _dispatch_batch probed past a failed replica
        # without counting stats.failovers, so dispatch-time failovers
        # (replica died after submit) drifted out of the metrics.
        engine = _engine()
        pool = ReplicaPool(engine, n_replicas=2, mode="inline")
        gateway = Gateway(pool, max_batch=64)
        X = _traffic(engine, 5)
        tickets = gateway.submit_many(X, keys=[1] * 5)  # routed while healthy
        assert gateway.stats.failovers == 0
        pool.replicas[1].healthy = False                # dies before dispatch
        gateway.flush()
        # Counted in request units, same as submit-time failover.
        assert gateway.stats.failovers == 5
        assert all(t.done and t.replica == 0 for t in tickets)
        assert [t.prediction for t in tickets] == engine.predict(X).tolist()

    def test_exit_does_not_mask_body_exception(self):
        # Regression: __exit__ flushed unconditionally, so a fleet-down
        # ReplicaError from the flush replaced the exception the body
        # was already raising.
        engine = _engine()
        pool = ReplicaPool(engine, n_replicas=1, mode="inline")
        with pytest.raises(ValueError, match="body error"):
            with Gateway(pool, max_batch=4) as gateway:
                gateway.submit(_traffic(engine, 1)[0])
                pool.replicas[0].healthy = False  # flush would raise
                raise ValueError("body error")

    def test_exit_still_flushes_on_clean_body(self):
        engine = _engine()
        pool = ReplicaPool(engine, n_replicas=1, mode="inline")
        with Gateway(pool, max_batch=64) as gateway:
            ticket = gateway.submit(_traffic(engine, 1)[0])
        assert ticket.done

    def test_rolling_promotion_covers_autoscaled_fleet(self):
        champion = random_model(seed=4, name="fleet")
        challenger = random_model(seed=11, name="fleet")
        registry = Registry()
        registry.publish("fleet", champion)
        pool = ReplicaPool.from_registry(registry, "fleet", n_replicas=2,
                                         mode="inline")
        gateway = Gateway(pool, max_batch=4)
        gateway.add_replica()                   # autoscaled mid-flight
        promoter = Promoter(registry, "fleet", gateway)
        X = _traffic(pool.engine, 20)
        record = promoter.promote(challenger, X, challenger.predict(X))
        assert record["promoted"] is True
        assert record["fleet"] == 3             # the roll saw all 3 replicas
        assert [e["replica"] for e in record["roll"]] == [0, 1, 2]
        assert pool.versions() == [2, 2, 2]
        rollback = promoter.rollback()
        assert rollback["fleet"] == 3
        assert pool.versions() == [1, 1, 1]

