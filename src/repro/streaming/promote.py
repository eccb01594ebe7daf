"""Challenger promotion: shadow-evaluate, publish, rolling swap, rollback.

:class:`Promoter` closes the continual-learning loop against the serving
stack.  A challenger (an online-trained machine) is frozen into an
unpublished engine snapshot and *shadow-evaluated* against the live
champion on the same recently-labelled traffic sample; only if it wins
by ``margin`` is it published to the :class:`~repro.serving.Registry`
and rolled into the serving :class:`~repro.serving.Gateway`.

The swap is zero-downtime by construction: the champion's version is
pinned in the registry for the duration of the promotion window (so
unversioned ``engine(name)`` readers never observe the challenger
mid-decision), and the gateway's
:meth:`~repro.serving.Gateway.rolling_swap` drains one replica at a
time (every accepted ticket resolves against the old engine), swaps it
and health-checks it before moving on.  No ticket is ever dropped or
served by a half-swapped state.  One front-end serves every fleet size,
so the same promoter drives a one-replica
:class:`~repro.serving.Batcher` and a multi-process fleet.

Rollback is the same dance in reverse: the previous version is still in
the registry (publish never overwrites), so :meth:`rollback` pins it and
rolls it back in.
"""

from __future__ import annotations

import numpy as np

from ..serving.engine import snapshot_engine

__all__ = ["Promoter"]


class Promoter:
    """Shadow-evaluation gate between challengers and the live engine.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.Registry` versions are published to.
    name:
        Model name under which champion and challengers are versioned.
    gateway:
        Optional :class:`~repro.serving.Gateway` (any fleet size,
        including a one-replica :class:`~repro.serving.Batcher`) serving
        live traffic; promotions and rollbacks roll through it replica
        by replica.  Without a gateway, promotion only moves the
        registry's latest version.
    margin:
        Required shadow-accuracy edge, ``challenger >= champion +
        margin``, before a promotion goes through.
    sample_fraction, seed:
        Fraction of the offered labelled traffic actually replayed for
        the shadow evaluation (seeded subsample) — shadow scoring cost
        control for wide eval windows.

    >>> import numpy as np
    >>> from repro.model import TMModel
    >>> from repro.serving import Registry
    >>> from repro.streaming import Promoter
    >>> inc = np.zeros((2, 1, 4), dtype=bool)
    >>> inc[0, 0, 0] = True; inc[1, 0, 2] = True   # class 0: x0, class 1: ~x0
    >>> champion = TMModel(include=inc, n_features=2, weights=[[1], [1]])
    >>> challenger = TMModel(include=inc[::-1].copy(), n_features=2,
    ...                      weights=[[1], [1]])   # the opposite concept
    >>> registry = Registry()
    >>> _ = registry.publish("m", champion)
    >>> promoter = Promoter(registry, "m")
    >>> X = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    >>> y = np.array([1, 0])                       # concept flipped: wins
    >>> record = promoter.promote(challenger, X, y)
    >>> record["promoted"], record["new_version"]
    (True, 2)
    >>> promoter.rollback()["restored_version"]
    1

    With a gateway, a promotion rolls the fleet replica by replica, and
    the promotion and rollback records gain ``"roll"`` (the per-replica
    events ``rolling_swap`` returned — the audit trail) and ``"fleet"``
    (the pool size at roll time).  The roll covers whatever fleet an
    :class:`~repro.serving.Autoscaler` has sized the pool to, and a
    replica added *after* a promotion comes up on the promoted engine,
    so the fleet never serves two versions.

    >>> from repro.serving import Gateway, ReplicaPool
    >>> registry = Registry()
    >>> _ = registry.publish("m", champion)
    >>> pool = ReplicaPool.from_registry(registry, "m", n_replicas=3,
    ...                                  mode="inline")
    >>> promoter = Promoter(registry, "m", Gateway(pool, max_batch=4))
    >>> record = promoter.promote(challenger, X, y)
    >>> record["promoted"], [e["replica"] for e in record["roll"]]
    (True, [0, 1, 2])
    >>> pool.versions()
    [2, 2, 2]
    >>> _ = promoter.rollback()
    >>> pool.versions()
    [1, 1, 1]
    """

    def __init__(self, registry, name, gateway=None, margin=0.0,
                 sample_fraction=1.0, seed=0):
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        self.registry = registry
        self.name = name
        self.gateway = gateway
        self.margin = float(margin)
        self.sample_fraction = float(sample_fraction)
        self._rng = np.random.default_rng(seed)
        self.history = []  # promotion / rejection / rollback records
        self.previous_version = None  # champion displaced by the last promotion

    # ------------------------------------------------------------------
    def live_engine(self):
        """The engine answering traffic right now."""
        if self.gateway is not None:
            return self.gateway.pool.engine
        return self.registry.engine(self.name)

    def _sampled(self, X, y):
        if self.sample_fraction >= 1.0 or len(X) == 0:
            return X, np.asarray(y)
        keep = self._rng.random(len(X)) < self.sample_fraction
        if not keep.any():
            keep[int(self._rng.integers(0, len(X)))] = True
        return X[keep], np.asarray(y)[keep]

    def shadow_evaluate(self, challenger, X, y):
        """Score challenger vs live champion on sampled labelled traffic.

        ``challenger`` may be a machine (snapshot taken here) or an
        already-frozen engine.  Returns the comparison dict; no registry
        or gateway state changes.
        """
        engine = challenger if hasattr(challenger, "predict_with_sums") \
            else snapshot_engine(challenger, name=self.name, version=0)
        Xs, ys = self._sampled(np.asarray(X), y)
        champion = self.live_engine()
        return {
            "n_shadow": int(len(Xs)),
            "champion_version": champion.version,
            "champion_accuracy": round(champion.evaluate(Xs, ys), 4),
            "challenger_accuracy": round(engine.evaluate(Xs, ys), 4),
        }

    # ------------------------------------------------------------------
    def promote(self, challenger, X, y):
        """Shadow-evaluate and, on a win, publish + roll the gateway.

        Returns the decision record (also appended to :attr:`history`)
        with ``promoted`` True/False and the shadow accuracies; with a
        gateway, a winning record also carries ``"roll"`` and
        ``"fleet"``.  During the decision the champion's version is
        pinned so concurrent unversioned registry readers stay on the
        known-good version until the swap is complete.

        A roll that fails mid-fleet re-raises — as
        :class:`~repro.serving.ReplicaError` for a replica death, or as
        whatever a propagating observer threw (e.g. a differential
        mismatch during the drain) — after ``rolling_swap`` has restored
        the already-promoted replicas.  The champion, which the gateway
        still serves, then stays pinned, so unversioned readers never
        resolve to the published-but-refused challenger version (which
        stays queryable as the audit trail).
        """
        champion = self.live_engine()
        pinned = (self.name in self.registry
                  and champion.version in self.registry.versions(self.name))
        prior_pin = self.registry.pinned_version(self.name) if pinned else None
        if pinned:
            self.registry.pin(self.name, champion.version)
        wins = swapped = False
        try:
            report = self.shadow_evaluate(challenger, X, y)
            wins = (report["challenger_accuracy"]
                    >= report["champion_accuracy"] + self.margin)
            record = dict(report, action="promote", promoted=bool(wins))
            if wins:
                engine = self.registry.publish(self.name, challenger)
                record["new_version"] = engine.version
                self._swap(engine, record)
                swapped = True
                self.previous_version = champion.version
        finally:
            if pinned:
                if swapped:
                    # The new latest serves; any earlier rollback pin is
                    # superseded by this promotion.
                    self.registry.unpin(self.name)
                elif wins:
                    # The roll failed after the publish: the champion
                    # still serves, so its pin stays over the refused
                    # latest.
                    pass
                elif prior_pin is not None:
                    # Rejection must not destroy a pre-existing pin
                    # (e.g. the known-good pin a rollback installed).
                    self.registry.pin(self.name, prior_pin)
                else:
                    self.registry.unpin(self.name)
        self.history.append(record)
        return record

    def rollback(self):
        """Reinstate the version displaced by the last promotion.

        The bad latest version stays in the registry (audit trail), so
        the reinstated version is pinned — unversioned readers resolve
        to it, not to the retracted latest — and rolled back into the
        gateway (the fleet *as currently sized*, including replicas an
        autoscaler added since the promotion).  Returns the rollback
        record.
        """
        if self.previous_version is None:
            raise RuntimeError("no promotion to roll back")
        version = self.previous_version
        engine = self.registry.engine(self.name, version)
        record = {
            "action": "rollback",
            "restored_version": version,
            "retracted_version": self.live_engine().version,
        }
        self.registry.pin(self.name, version)
        self._swap(engine, record)
        self.previous_version = None
        self.history.append(record)
        return record

    def _swap(self, engine, record):
        """Roll live traffic onto ``engine``; audit the roll in ``record``."""
        if self.gateway is not None:
            record["roll"] = self.gateway.rolling_swap(engine)
            record["fleet"] = len(self.gateway.pool.replicas)
