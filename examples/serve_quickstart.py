"""Serving quickstart: publish a model and serve micro-batched traffic.

The serving tour, end to end:

1. train a Tsetlin Machine (the vectorized backend),
2. publish a frozen snapshot to a versioned Registry,
3. serve single-sample requests through the micro-batching Batcher
   (a one-replica Gateway; packed-literal engine under the hood),
4. keep training and publish v2 — the live engine is unaffected until
   you switch versions,
5. attach a DifferentialChecker so a sampled fraction of *served*
   batches is replayed through the cycle-accurate simulator of the
   generated accelerator and compared bit for bit.

Run:  python examples/serve_quickstart.py
"""

import time

from repro.accelerator import AcceleratorConfig, generate_accelerator
from repro.data import load_dataset
from repro.serving import Batcher, DifferentialChecker, Registry
from repro.tsetlin import TsetlinMachine


def main():
    # 1. Train.
    ds = load_dataset("kws6", n_train=400, n_test=200, seed=0)
    tm = TsetlinMachine(
        n_classes=ds.n_classes,
        n_features=ds.n_features,
        n_clauses=24,
        T=15,
        s=4.0,
        seed=42,
        backend="vectorized",
    )
    tm.fit(ds.X_train, ds.y_train, epochs=4)
    print(f"trained: accuracy {tm.evaluate(ds.X_test, ds.y_test):.4f}")

    # 2. Publish a frozen snapshot.  The include matrix is copied and
    #    bit-packed once; training can continue on `tm` without touching
    #    what is served.
    registry = Registry()
    engine = registry.publish("kws6", tm)
    print(f"published: {engine!r}")

    # 3 + 5. A batcher with a differential checker attached: requests
    #    coalesce into batches of <= 32 (or a 2 ms deadline), and ~25% of
    #    served batches are replayed through the cycle-accurate netlist
    #    simulation of the generated accelerator.
    design = generate_accelerator(
        tm.export_model("kws6"), AcceleratorConfig(name="kws6_serve")
    )
    checker = DifferentialChecker(design, fraction=0.25, seed=0)
    batcher = Batcher(engine, max_batch=32, max_delay=0.002,
                      observers=[checker])

    t0 = time.perf_counter()
    tickets = [batcher.submit(x) for x in ds.X_test]
    batcher.flush()  # collect every dispatched batch, resolve every ticket
    elapsed = time.perf_counter() - t0
    correct = sum(
        t.result() == int(y) for t, y in zip(tickets, ds.y_test)
    )
    stats = batcher.stats
    print(
        f"served {len(tickets)} requests as {stats.n_batches} "
        f"batches (mean size {stats.n_samples / stats.n_batches:.1f}) in "
        f"{elapsed * 1e3:.1f} ms -> {len(tickets) / elapsed:.0f} req/s, "
        f"accuracy {correct / len(tickets):.4f}"
    )
    print(checker.summary())

    # 4. Keep training, publish v2; v1 stays pinned until you switch.
    tm.fit(ds.X_train, ds.y_train, epochs=2)
    v2 = registry.publish("kws6", tm)
    print(f"versions now: {registry.versions('kws6')}; "
          f"latest acc {v2.evaluate(ds.X_test, ds.y_test):.4f}, "
          f"pinned v1 acc "
          f"{registry.engine('kws6', version=1).evaluate(ds.X_test, ds.y_test):.4f}")


if __name__ == "__main__":
    main()
