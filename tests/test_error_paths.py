"""Failure-injection and error-path tests across the toolflow."""

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, generate_accelerator
from repro.flow.verify import netlists_equivalent
from repro.rtl import Netlist
from repro.simulator import AcceleratorSimulator, Testbench, emit_verilog_testbench


class TestSimulatorErrors:
    def test_run_batch_lane_mismatch(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        sim = AcceleratorSimulator(design, batch=4)
        with pytest.raises(ValueError):
            sim.run_batch(np.zeros((3, tiny_model.n_features), dtype=np.uint8))

    def test_run_stream_requires_single_lane(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        sim = AcceleratorSimulator(design, batch=2)
        with pytest.raises(ValueError):
            sim.run_stream(np.zeros((1, tiny_model.n_features), dtype=np.uint8))

    def test_non_binary_features_rejected(self, tiny_model):
        """A 2 would shift into the next bus bit instead of raising."""
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        X = np.zeros((4, tiny_model.n_features), dtype=np.uint8)
        X[1, 0] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            AcceleratorSimulator(design).run_batch(X)
        with pytest.raises(ValueError, match="0 or 1"):
            AcceleratorSimulator(design, batch=1).run_stream(X)
        with pytest.raises(ValueError, match="0 or 1"):
            Testbench(design, X).run()
        with pytest.raises(ValueError, match="0 or 1"):
            emit_verilog_testbench(design, X)


class TestTestbenchDetectsBrokenDesigns:
    def test_flipped_result_bit_fails(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        nl = design.netlist
        nl.set_output("result[0]", nl.g_not(nl.outputs["result[0]"]))
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(4, tiny_model.n_features)).astype(np.uint8)
        report = Testbench(design, X).run()
        assert not report.passed
        assert report.mismatches > 0

    def test_broken_valid_timing_fails(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        nl = design.netlist
        # Delay result_valid by an extra register: latency check must fail.
        late = nl.dff(nl.outputs["result_valid"], name="late_valid")
        nl.set_output("result_valid", late)
        X = np.zeros((2, tiny_model.n_features), dtype=np.uint8)
        report = Testbench(design, X).run()
        assert not report.latency_match
        assert not report.passed


class TestEquivalenceChecker:
    def test_different_interfaces_not_equivalent(self):
        a = Netlist("a")
        x = a.add_input("x")
        a.set_output("o", a.g_not(x))
        b = Netlist("b")
        y = b.add_input("y")
        b.set_output("o", b.g_not(y))
        assert not netlists_equivalent(a, b)

    def test_different_functions_detected(self):
        a = Netlist("a")
        x = a.add_input("x")
        z = a.add_input("z")
        a.set_output("o", a.g_and(x, z))
        b = Netlist("b")
        x2 = b.add_input("x")
        z2 = b.add_input("z")
        b.set_output("o", b.g_or(x2, z2))
        assert not netlists_equivalent(a, b, n_cycles=16)

    def test_different_register_init_detected(self):
        a = Netlist("a")
        xa = a.add_input("x")
        a.set_output("o", a.dff(xa, init=0))
        b = Netlist("b")
        xb = b.add_input("x")
        b.set_output("o", b.dff(xb, init=1))
        assert not netlists_equivalent(a, b, n_cycles=4)

    def test_input_less_netlists_compared(self):
        """A free-running register chain has no input to drive."""
        def chain(init):
            nl = Netlist("chain")
            r0 = nl.dff(nl.const(0), init=init)
            nl.set_output("o", nl.dff(r0, init=1))
            return nl

        assert netlists_equivalent(chain(1), chain(1), n_cycles=4)
        assert not netlists_equivalent(chain(1), chain(0), n_cycles=4)


class TestCliErrors:
    def test_unknown_dataset_rejected_by_argparse(self):
        from repro.flow.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--dataset", "imagenet"])

    def test_missing_command_rejected(self):
        from repro.flow.cli import main

        with pytest.raises(SystemExit):
            main([])


class TestConfigValidation:
    def test_bus_width_bounds(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(bus_width=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(bus_width=4096)

    def test_argmax_single_class_rejected(self):
        from repro.accelerator import build_argmax

        nl = Netlist()
        with pytest.raises(ValueError):
            build_argmax(nl, [], 0)

    def test_generate_rejects_weight_shape_via_model(self):
        import numpy as np

        from repro.model import TMModel

        with pytest.raises(ValueError):
            TMModel(
                include=np.zeros((2, 2, 4), dtype=bool),
                n_features=2,
                weights=np.zeros((3, 2), dtype=np.int32),
            )
