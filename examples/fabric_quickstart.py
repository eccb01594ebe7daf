"""Fabric quickstart: shard serving across replicas, promote rolling.

The scale-out tour, end to end:

1. train a Tsetlin Machine and publish it to a versioned Registry,
2. build a ReplicaPool of worker processes over the published snapshot
   and front it with a routing Gateway,
3. fan single-sample request traffic across the fleet (deterministic
   key routing, bounded queue, per-replica micro-batches),
4. train a challenger on fresher data and promote it replica-by-replica
   with Promoter — every replica is drained, swapped and
   health-checked in turn, with zero dropped requests,
5. roll the whole fleet back.

Run:  PYTHONPATH=src python examples/fabric_quickstart.py
"""

import numpy as np

from repro.data import load_dataset
from repro.serving import Gateway, Registry, ReplicaPool
from repro.streaming import Promoter
from repro.tsetlin import TsetlinMachine


def train(ds, n_samples, epochs, seed):
    tm = TsetlinMachine(
        n_classes=ds.n_classes,
        n_features=ds.n_features,
        n_clauses=24,
        T=15,
        s=4.0,
        seed=seed,
        backend="vectorized",
    )
    tm.fit(ds.X_train[:n_samples], ds.y_train[:n_samples], epochs=epochs)
    return tm


def main():
    # 1. Train a champion on the data available at deploy time and
    #    publish it (frozen snapshot, v1).
    ds = load_dataset("kws6", n_train=400, n_test=200, seed=0)
    champion = train(ds, n_samples=120, epochs=2, seed=42)
    registry = Registry()
    registry.publish("kws6", champion)

    # 2. A fleet of 3 replica workers behind a routing gateway.
    with ReplicaPool.from_registry(registry, "kws6", n_replicas=3,
                                   max_batch=32) as pool:
        gateway = Gateway(pool, max_batch=32, max_queue=512)
        print(f"fleet up: {pool!r}")

        # 3. Fan 600 single-sample requests across the fleet.
        X = ds.X_test[np.arange(600) % len(ds.X_test)]
        y = ds.y_test[np.arange(600) % len(ds.y_test)]
        tickets = gateway.submit_many(X)
        gateway.flush()
        accuracy = np.mean([t.prediction for t in tickets] == y)
        by_replica = {i: r.n_samples for i, r in enumerate(pool.replicas)}
        print(f"served {len(tickets)} requests, accuracy {accuracy:.4f}, "
              f"per-replica load {by_replica}")

        # 4. A challenger trained on everything since rolls through the
        #    fleet.
        challenger = train(ds, n_samples=len(ds.X_train), epochs=4, seed=42)
        promoter = Promoter(registry, "kws6", gateway)
        record = promoter.promote(challenger, ds.X_test, ds.y_test)
        print(f"promotion: champion {record['champion_accuracy']:.4f} vs "
              f"challenger {record['challenger_accuracy']:.4f} -> "
              f"promoted={record['promoted']}")
        if record["promoted"]:
            print(f"  rolled: {record['roll']}")
            print(f"  fleet versions now {pool.versions()}")

            # 5. And back again: fleet-wide rollback, v2 stays auditable.
            rollback = promoter.rollback()
            print(f"rollback: restored v{rollback['restored_version']}, "
                  f"fleet versions {pool.versions()}, "
                  f"registry keeps {registry.versions('kws6')}")

        report = gateway.report()
        print(f"fabric stats: {report['fabric']}")


if __name__ == "__main__":
    main()
