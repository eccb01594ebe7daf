"""Continual learning quickstart: drift, detection, hot promotion.

The full `repro.streaming` loop on a synthetic drifting stream:

1. replay a dataset as micro-batched request traffic,
2. inject an abrupt concept drift (label permutation) at a known onset,
3. warm up and publish a champion, serve the stream through the
   Batcher (a one-replica Gateway),
4. detect the accuracy collapse from served predictions vs delayed
   labels (ADWIN-style windowed mean-shift test),
5. train a challenger online (`partial_fit`) on post-detection traffic,
   shadow-evaluate it against the live champion, and hot-swap it
   through the versioned Registry with zero dropped requests,
6. then demonstrate rollback to the prior version.

Run:  python examples/online_learning.py
"""

from repro.data import load_dataset
from repro.streaming import (
    DriftDetector,
    DriftStream,
    ReplayStream,
    StreamSession,
    permute_labels,
)
from repro.tsetlin import TsetlinMachine

DRIFT_AT = 1200


def main():
    # 1-2. A drifting stream over the KWS6 stand-in: labels permute at
    # sample 1200, so the deployed concept abruptly stops being true.
    ds = load_dataset("kws6", n_train=500, n_test=100, seed=0)
    stream = DriftStream(
        ReplayStream(ds, batch_size=32, n_samples=2800, seed=5),
        permute_labels(ds.n_classes, seed=3),
        drift_at=DRIFT_AT,
    )

    # 3-5. The standing loop. The factory builds the champion (seed) and
    # every challenger (seed + k); challengers learn online from
    # post-detection traffic only.
    def factory(seed):
        return TsetlinMachine(
            n_classes=ds.n_classes, n_features=ds.n_features,
            n_clauses=32, T=12, s=4.0, seed=seed, backend="vectorized",
        )

    session = StreamSession(
        stream, factory, warmup=400, name="kws6",
        detector=DriftDetector(window=400, check_every=8),
        max_batch=32, adapt_window=400, eval_window=200, seed=42,
    )
    report = session.run()

    print(f"served   : {report['served']}/{report['requests']} requests "
          f"({report['unresolved']} unresolved)")
    print(f"drift    : induced @ {report['true_drift_at']}, detected @ "
          f"{report['detections']} (delay {report['detection_delay']})")
    for promo in report["promotions"]:
        print(f"promoted : v{promo['champion_version']} -> "
              f"v{promo['new_version']}  (shadow accuracy "
              f"{promo['champion_accuracy']:.2f} -> "
              f"{promo['challenger_accuracy']:.2f})")
    for key, value in report["accuracy"].items():
        if value is not None:
            print(f"accuracy : {key:26s} {value:.4f}")

    # 6. Rollback: the prior version is still in the registry; pin it
    # back in and hot-swap the serving engine.
    if report["promotions"]:
        record = session.rollback()
        print(f"rollback : restored v{record['restored_version']} "
              f"(v{record['retracted_version']} stays queryable)")
        print(f"live     : v{session.batcher.engine.version}, registry "
              f"versions {session.registry.versions('kws6')}")


if __name__ == "__main__":
    main()
