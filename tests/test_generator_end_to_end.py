"""End-to-end tests of the design generator: equivalence, timing, pipelining."""

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, generate_accelerator
from repro.simulator import AcceleratorSimulator, Testbench
from _fixtures import random_model


def hw_sw_match(model, config, n_vectors=24, seed=0):
    design = generate_accelerator(model, config)
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n_vectors, model.n_features)).astype(np.uint8)
    sim = AcceleratorSimulator(design, batch=n_vectors)
    report = sim.run_batch(X)
    return design, bool(np.array_equal(report.predictions, model.predict(X))), report


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_models(self, seed):
        model = random_model(n_classes=3, n_clauses=6, n_features=20,
                             density=0.2, seed=seed)
        _, ok, _ = hw_sw_match(model, AcceleratorConfig(bus_width=8))
        assert ok

    @pytest.mark.parametrize("bus_width", [4, 8, 16, 32, 64])
    def test_bus_widths(self, bus_width):
        model = random_model(n_classes=2, n_clauses=4, n_features=30,
                             density=0.15, seed=1)
        design, ok, _ = hw_sw_match(model, AcceleratorConfig(bus_width=bus_width))
        assert ok
        expected_packets = -(-30 // bus_width)
        assert design.n_packets == expected_packets

    @pytest.mark.parametrize("ps,pa", [(True, True), (True, False),
                                       (False, True), (False, False)])
    def test_pipeline_configurations(self, ps, pa):
        model = random_model(seed=7)
        config = AcceleratorConfig(bus_width=8, pipeline_class_sum=ps,
                                   pipeline_argmax=pa)
        design, ok, report = hw_sw_match(model, config)
        assert ok
        assert report.first_result_cycle == design.latency.first_result_cycle

    def test_dont_touch_equivalent(self):
        model = random_model(seed=3)
        _, ok, _ = hw_sw_match(model, AcceleratorConfig(bus_width=8,
                                                        share_logic=False))
        assert ok

    def test_no_pruning_equivalent(self):
        model = random_model(seed=4)
        _, ok, _ = hw_sw_match(model, AcceleratorConfig(bus_width=8,
                                                        prune_passthrough=False))
        assert ok

    def test_model_with_empty_clauses(self):
        model = random_model(density=0.03, seed=5)  # many empty clauses
        assert model.empty_clause_mask().any()
        _, ok, _ = hw_sw_match(model, AcceleratorConfig(bus_width=8))
        assert ok

    def test_two_class_single_packet(self):
        model = random_model(n_classes=2, n_clauses=4, n_features=6,
                             density=0.3, seed=6)
        design, ok, _ = hw_sw_match(model, AcceleratorConfig(bus_width=8))
        assert ok
        assert design.n_packets == 1

    def test_weighted_coalesced_model(self):
        from repro.tsetlin import CoalescedTsetlinMachine

        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(80, 12)).astype(np.uint8)
        y = (X[:, 0] + X[:, 1]).astype(np.int64) % 2
        cotm = CoalescedTsetlinMachine(2, 12, n_clauses=6, T=6, seed=1)
        cotm.fit(X, y, epochs=3)
        model = cotm.export_model()
        _, ok, _ = hw_sw_match(model, AcceleratorConfig(bus_width=8))
        assert ok


class TestWidthIsARunArgument:
    def test_verify_against_model_reuses_the_compiled_program(self):
        model = random_model(n_features=20, seed=6)
        design = generate_accelerator(model, AcceleratorConfig(bus_width=8))
        sim = AcceleratorSimulator(design)
        program = sim.sim
        rng = np.random.default_rng(3)
        for n in (7, 70):
            X = rng.integers(0, 2, size=(n, 20)).astype(np.uint8)
            hw = sim.run_batch(X).predictions
            assert len(hw) == n
            assert np.array_equal(hw, model.predict(X))
            assert sim.sim is program and program.batch == n

    def test_unfixed_simulator_runs_any_width_then_streams(self):
        model = random_model(n_features=20, seed=5)
        design = generate_accelerator(model, AcceleratorConfig(bus_width=8))
        sim = AcceleratorSimulator(design)
        rng = np.random.default_rng(4)
        for n in (65, 1, 3):
            X = rng.integers(0, 2, size=(n, 20)).astype(np.uint8)
            assert np.array_equal(sim.run_batch(X).predictions,
                                  model.predict(X))
        X = rng.integers(0, 2, size=(3, 20)).astype(np.uint8)
        assert np.array_equal(sim.run_stream(X).predictions, model.predict(X))


class TestStreamTiming:
    def test_initiation_interval_matches_packets(self):
        model = random_model(n_features=20, seed=2)
        design = generate_accelerator(model, AcceleratorConfig(bus_width=4))
        sim = AcceleratorSimulator(design, batch=1)
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(6, 20)).astype(np.uint8)
        report = sim.run_stream(X)
        assert len(report.predictions) == 6
        assert report.initiation_interval == design.latency.initiation_interval
        assert np.array_equal(report.predictions, model.predict(X))

    def test_gapped_stream_still_correct(self):
        model = random_model(n_features=16, seed=8)
        design = generate_accelerator(model, AcceleratorConfig(bus_width=8))
        sim = AcceleratorSimulator(design, batch=1)
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, size=(4, 16)).astype(np.uint8)
        report = sim.run_stream(X, gap=2)
        assert np.array_equal(report.predictions, model.predict(X))
        # With gaps the initiation interval stretches by the gap factor.
        assert report.initiation_interval > design.latency.initiation_interval

    def test_first_latency_formula(self):
        """Latency = packets + stages, verified for all pipeline combos."""
        model = random_model(n_features=24, seed=9)
        for ps in (False, True):
            for pa in (False, True):
                config = AcceleratorConfig(bus_width=8, pipeline_class_sum=ps,
                                           pipeline_argmax=pa)
                design = generate_accelerator(model, config)
                sim = AcceleratorSimulator(design, batch=1)
                X = np.zeros((1, 24), dtype=np.uint8)
                report = sim.run_stream(X)
                assert report.first_result_cycle == design.latency.first_result_cycle


class TestTestbench:
    def test_testbench_passes_on_good_design(self, trained_model):
        design = generate_accelerator(trained_model, AcceleratorConfig())
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(5, trained_model.n_features)).astype(np.uint8)
        report = Testbench(design, X).run()
        assert report.passed, report.summary()

    @pytest.mark.parametrize("bus_width", [4, 8])
    @pytest.mark.parametrize("ps,pa", [(True, True), (True, False),
                                       (False, True), (False, False)])
    def test_testbench_reports_the_stream_figures(self, bus_width, ps, pa):
        model = random_model(n_features=20, seed=11)
        config = AcceleratorConfig(bus_width=bus_width, pipeline_class_sum=ps,
                                   pipeline_argmax=pa)
        design = generate_accelerator(model, config)
        X = np.random.default_rng(5).integers(0, 2, size=(5, 20)).astype(np.uint8)
        report = Testbench(design, X).run()
        stream = AcceleratorSimulator(design, batch=1).run_stream(X)
        assert report.measured_first_latency == stream.first_result_cycle
        assert report.measured_ii == stream.initiation_interval
        assert report.handshake_beats == stream.beats_accepted
        assert report.mismatches == np.count_nonzero(
            stream.predictions != model.predict(X))
        assert report.passed, report.summary()

    def test_verilog_testbench_text(self, tiny_model):
        from repro.simulator import emit_verilog_testbench

        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        X = np.zeros((2, tiny_model.n_features), dtype=np.uint8)
        tb = emit_verilog_testbench(design, X)
        assert "module matador_accel_tb;" in tb
        assert "$finish" in tb
        assert tb.count("@(posedge clk)") >= design.n_packets


class TestDesignMetadata:
    def test_structure_report_blocks(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        report = design.structure_report()
        assert any(b.startswith("hcb") for b in report)
        assert "class_sum" in report
        assert "argmax" in report
        assert "ctrl" in report

    def test_summary_text(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        text = design.summary()
        assert "packets" in text
        assert "II=" in text
