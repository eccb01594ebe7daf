"""Tests for the end-to-end flow, verification, deployment and CLI."""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, generate_accelerator
from repro.flow import FlowConfig, MatadorFlow, verify_design
from repro.flow.cli import main
from repro.flow.deploy import deployment_report, generate_host_driver, write_bundle
from repro.obs import MetricsRegistry, set_registry
from repro.rtl.verilog import emit_verilog
from repro.synthesis import implement_design
from _fixtures import random_model


def tiny_flow_config(**overrides):
    base = dict(
        dataset="kws6", n_train=220, n_test=80, clauses_per_class=14,
        T=10, s=4.0, epochs=4, verify_samples=4,
    )
    base.update(overrides)
    return FlowConfig(**base)


class TestFlowConfig:
    def test_roundtrip_dict(self):
        cfg = tiny_flow_config()
        clone = FlowConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig.from_dict({"clauses": 10})

    def test_accelerator_config_mapping(self):
        cfg = tiny_flow_config(bus_width=32, share_logic=False)
        acc = cfg.accelerator_config()
        assert acc.bus_width == 32
        assert acc.share_logic is False


class TestMatadorFlow:
    @pytest.fixture(scope="class")
    def completed(self):
        flow = MatadorFlow(tiny_flow_config())
        result = flow.run(verify=True)
        return flow, result

    def test_all_stages_timed(self, completed):
        _, result = completed
        for stage in ("load_data", "train", "analyze", "generate",
                      "implement", "verify"):
            assert stage in result.stage_seconds

    def test_stage_seconds_recorded_in_registry(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            result = MatadorFlow(tiny_flow_config(
                n_train=60, n_test=20, clauses_per_class=6, epochs=1,
            )).run(verify=True)
        finally:
            set_registry(previous)
        series = registry.snapshot()["metrics"]["flow_stage_seconds"]["series"]
        counts = {s["labels"]["stage"]: s["count"] for s in series}
        assert counts == dict.fromkeys(result.stage_seconds, 1)
        assert len(counts) == 6

    def test_accuracy_reasonable(self, completed):
        _, result = completed
        assert result.accuracy > 0.5  # 6-class problem, tiny model

    def test_verification_passes(self, completed):
        _, result = completed
        assert result.verification.passed, result.verification.summary()

    def test_table_row_fields(self, completed):
        _, result = completed
        row = result.table_row()
        assert row["Throughput (inf/s)"] > 0
        assert row["Latency (us)"] > 0
        assert row["Test Acc (%)"] == pytest.approx(100 * result.accuracy)

    def test_summary_text(self, completed):
        _, result = completed
        text = result.summary()
        assert "accuracy" in text
        assert "verify" in text

    def test_full_run_has_no_na_fields(self, completed):
        _, result = completed
        assert "n/a" not in result.summary()
        row = result.table_row()
        assert "n/a" not in row.values()
        assert row["Verified"] == "pass"

    def test_skipped_verify_renders_na(self):
        """verify=False must yield explicit n/a, not silently-missing fields."""
        flow = MatadorFlow(tiny_flow_config(epochs=1, clauses_per_class=4))
        result = flow.run(verify=False)
        row = result.table_row()
        assert row["Verified"] == "n/a"
        assert row["Throughput (inf/s)"] > 0  # completed stages stay numeric
        assert "verify:   n/a (stage skipped)" in result.summary()

    def test_train_only_result_renders_na_everywhere(self):
        flow = MatadorFlow(tiny_flow_config(epochs=1, clauses_per_class=4))
        flow.load_data()
        flow.train()
        result = flow.result
        row = result.table_row()
        assert row["Test Acc (%)"] > 0
        for column in ("LUTs", "Latency (us)", "Throughput (inf/s)",
                       "Total Pwr (W)", "Clock (MHz)", "Verified"):
            assert row[column] == "n/a", column
        text = result.summary()
        assert text.count("n/a (stage skipped)") == 4  # all but accuracy
        assert f"accuracy: {result.accuracy:.4f}" in text

    def test_table_row_columns_stable_across_skips(self):
        """Same column set whether stages ran or not (tabulator contract)."""
        full = MatadorFlow(tiny_flow_config(epochs=1, clauses_per_class=4))
        full_row = full.run(verify=True).table_row()
        trained = MatadorFlow(tiny_flow_config(epochs=1, clauses_per_class=4))
        trained.load_data()
        trained.train()
        assert list(full_row) == list(trained.result.table_row())

    def test_deploy_bundle(self, completed, tmp_path):
        flow, _ = completed
        files = flow.deploy(tmp_path / "bundle")
        names = {f.name for f in files}
        assert "host_driver.py" in names
        assert "model.json" in names
        assert "report.json" in names
        assert any(n.endswith(".v") for n in names)

    def test_stages_lazy_chain(self):
        """Calling implement() directly pulls in all prerequisites."""
        flow = MatadorFlow(tiny_flow_config(epochs=1, clauses_per_class=4))
        impl = flow.implement()
        assert impl.resources.luts > 0
        assert flow.result.model is not None

    def test_import_model_path(self, tmp_path, trained_model):
        path = tmp_path / "ext.json"
        trained_model.save(path)
        flow = MatadorFlow(tiny_flow_config(model_path=str(path), epochs=0))
        model = flow.train()
        assert model.n_clauses == trained_model.n_clauses

    def test_import_feature_mismatch(self, tmp_path):
        bad = random_model(n_features=10)
        path = tmp_path / "bad.json"
        bad.save(path)
        flow = MatadorFlow(tiny_flow_config(model_path=str(path)))
        with pytest.raises(ValueError):
            flow.train()


class TestGoldenFlow:
    """Seed-exact pin of the benchmark flow (``perfbench`` ``FLOW``).

    The backend-equivalence suite proves reference and vectorized agree;
    this pin proves neither moved.  A training change meant to be
    bit-identical must leave all four figures alone; a change that moves
    them on purpose updates them here.  The emitted Verilog text and the
    synthetic dataset bytes are pinned too, so a faster generator, parser
    or raster cannot move them unnoticed.
    """

    FLOW = dict(dataset="mnist", clauses_per_class=40, epochs=4,
                verify_samples=64, data_seed=0)
    INCLUDE_SHA256 = (
        "e01cbbb70f42ebe082d72d70652f02039095a6b00500c738abaadc0bf507cd0d"
    )
    VERILOG_SHA256 = (
        "6e685fcca4771920652ab25a4a94bb5208fa4321ab29df748e90d2506a51e514"
    )
    X_TRAIN_SHA256 = (
        "09522450e50f6ec3151e794b3854a1f5eef24731269dbd7d78107526fd1e45ae"
    )
    X_TEST_SHA256 = (
        "c3eee931d4b3b8d73e811edb93fbe8e72f35800434e46b1e2414a92897d89fc6"
    )

    def test_flow_mnist_seed0_is_pinned(self):
        result = MatadorFlow(FlowConfig(**self.FLOW)).run()
        include = np.ascontiguousarray(result.machine.includes(), dtype=bool)
        assert include.shape == (10, 40, 1568)
        assert hashlib.sha256(include.tobytes()).hexdigest() == (
            self.INCLUDE_SHA256
        )
        assert result.accuracy == 189 / 300
        assert result.implementation.resources.luts == 6841
        assert result.design.latency.latency_cycles == 16
        assert result.verification.passed
        sharing = result.sharing  # exact over all C(392, 2) = 76,636 pairs
        assert sharing.total_nonempty_clauses == 392
        assert sharing.shared_literal_pairs == 20548
        assert sharing.pairwise_literal_overlap == pytest.approx(
            0.0085117729324, abs=1e-12
        )
        verilog = emit_verilog(result.design.netlist)
        assert hashlib.sha256(verilog.encode()).hexdigest() == (
            self.VERILOG_SHA256
        )
        ds = result.dataset
        assert hashlib.sha256(ds.X_train.tobytes()).hexdigest() == (
            self.X_TRAIN_SHA256
        )
        assert hashlib.sha256(ds.X_test.tobytes()).hexdigest() == (
            self.X_TEST_SHA256
        )


class TestModelFamilies:
    def test_coalesced_family_full_flow(self):
        flow = MatadorFlow(tiny_flow_config(
            model_family="coalesced", epochs=2, clauses_per_class=8,
        ))
        result = flow.run(verify=True)
        assert result.machine.__class__.__name__ == "CoalescedTsetlinMachine"
        assert result.verification.passed
        assert result.table_row()["LUTs"] > 0

    def test_convolutional_family_trains_and_skips_hardware(self):
        flow = MatadorFlow(tiny_flow_config(
            dataset="mnist", n_train=100, n_test=60,
            model_family="convolutional", epochs=1, clauses_per_class=4,
        ))
        result = flow.run()
        assert result.accuracy is not None
        assert result.model is None
        assert result.design is None
        assert result.table_row()["LUTs"] == "n/a"

    def test_convolutional_requires_image_dataset(self):
        flow = MatadorFlow(tiny_flow_config(model_family="convolutional"))
        with pytest.raises(ValueError, match="image_shape"):
            flow.train()

    def test_hardware_stage_rejects_conv_family(self):
        flow = MatadorFlow(tiny_flow_config(
            dataset="mnist", n_train=100, n_test=60,
            model_family="convolutional", epochs=1, clauses_per_class=4,
        ))
        with pytest.raises(RuntimeError, match="no frozen TMModel"):
            flow.generate()

    def test_hardware_stage_does_not_retrain_conv(self):
        """An already-trained conv machine must fail fast, not retrain."""
        flow = MatadorFlow(tiny_flow_config(
            dataset="mnist", n_train=100, n_test=60,
            model_family="convolutional", epochs=1, clauses_per_class=4,
        ))
        flow.run()
        machine = flow.result.machine
        train_seconds = flow.result.stage_seconds["train"]
        with pytest.raises(RuntimeError, match="no frozen TMModel"):
            flow.generate()
        assert flow.result.machine is machine
        assert flow.result.stage_seconds["train"] == train_seconds

    def test_unknown_family_rejected(self):
        flow = MatadorFlow(tiny_flow_config(model_family="quantum"))
        with pytest.raises(ValueError, match="model_family"):
            flow.train()


class TestVerifyDesign:
    def test_passes_on_good_design(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        report = verify_design(design, n_random_vectors=12)
        assert report.passed, report.summary()

    def test_compiles_each_netlist_once(self, tiny_model, monkeypatch):
        """The design's netlist serves all three checks; only the
        reparsed netlist needs a compile of its own."""
        from repro.simulator.core import CompiledNetlist

        compiled = []
        init = CompiledNetlist.__init__

        def counting_init(self, netlist, *args, **kwargs):
            compiled.append(netlist)
            init(self, netlist, *args, **kwargs)

        monkeypatch.setattr(CompiledNetlist, "__init__", counting_init)
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        report = verify_design(design, n_random_vectors=12)
        assert report.passed, report.summary()
        assert len(compiled) == 2
        assert compiled[0] is design.netlist
        assert compiled[1] is not design.netlist

    def test_detects_sabotaged_output(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        # Sabotage: invert the lowest result bit after generation.
        nl = design.netlist
        victim = nl.outputs["result[0]"]
        nl.set_output("result[0]", nl.g_not(victim))
        report = verify_design(design, n_random_vectors=24)
        assert not report.functional_ok
        assert not report.passed


class TestDeployArtifacts:
    def test_driver_source_compiles(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        src = generate_host_driver(design, clock_mhz=50.0)
        compile(src, "host_driver.py", "exec")  # syntax check
        assert "PacketSchedule" in src

    def test_report_structure(self, tiny_model):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        impl = implement_design(design)
        report = deployment_report(design, impl, accuracy=0.9)
        assert report["stream"]["packets_per_datapoint"] == design.n_packets
        assert report["test_accuracy"] == 0.9
        json.dumps(report)  # must be serializable

    def test_write_bundle_files(self, tiny_model, tmp_path):
        design = generate_accelerator(tiny_model, AcceleratorConfig(bus_width=8))
        impl = implement_design(design)
        X = np.zeros((2, tiny_model.n_features), dtype=np.uint8)
        files = write_bundle(tmp_path, design, impl, tiny_model,
                             example_inputs=X)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "matador_accel_tb.v").exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["device"] == "xc7z020"


class TestCli:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_datasets(self):
        code, text = self.run_cli(["datasets"])
        assert code == 0
        assert "mnist" in text
        assert "kws6" in text

    def test_table2(self):
        code, text = self.run_cli(["table2"])
        assert code == 0
        assert "784-64-64-64-10" in text
        assert "200 clauses/class" in text

    def test_run_small(self, tmp_path):
        code, text = self.run_cli([
            "run", "--dataset", "kws6", "--clauses", "8", "--epochs", "1",
            "--train", "100", "--test", "50", "--json",
        ])
        assert code == 0
        assert "Throughput (inf/s)" in text

    def test_emit_writes_rtl(self, tmp_path):
        outdir = tmp_path / "rtl"
        code, text = self.run_cli([
            "emit", "--dataset", "kws6", "--clauses", "6", "--epochs", "1",
            "--train", "80", "--test", "40", "--outdir", str(outdir),
        ])
        assert code == 0
        assert (outdir / "matador_accel.v").exists()

    def test_config_file(self, tmp_path):
        cfg = tiny_flow_config(epochs=1, clauses_per_class=4)
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code, text = self.run_cli(["run", "--config", str(path), "--no-verify"])
        assert code == 0

    def test_sweep_report_and_resume(self, tmp_path):
        report = tmp_path / "pareto.json"
        csv_path = tmp_path / "points.csv"
        argv = [
            "sweep", "--dataset", "kws6", "--clauses", "6,8", "--T", "8",
            "--s", "4.0", "--epochs", "1", "--train", "100", "--test", "50",
            "--bus-width", "32,64", "--jobs", "2", "--resume",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(report), "--csv", str(csv_path),
        ]
        code, text = self.run_cli(argv)
        assert code == 0
        assert "4 points (0 cached" in text
        payload = json.loads(report.read_text())
        assert payload["n_points"] == 4
        assert payload["pareto_keys"]
        assert csv_path.read_text().startswith("key,")

        first = report.read_bytes()
        code, text = self.run_cli(argv)
        assert code == 0
        assert "4 points (4 cached" in text
        assert report.read_bytes() == first  # resume is bit-identical

    def test_sweep_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "base": {"dataset": "kws6", "n_train": 100, "n_test": 50,
                     "epochs": 1, "clauses_per_class": 6, "T": 8},
            "grid": {"bus_width": [32, 64]},
        }))
        code, text = self.run_cli([
            "sweep", "--spec", str(spec), "--no-cache", "--json",
        ])
        assert code == 0
        payload = json.loads(text)
        assert payload["n_points"] == 2

    def test_sweep_reports_errors(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"points": [{"dataset": "bogus"}]}))
        code, text = self.run_cli([
            "sweep", "--spec", str(spec), "--no-cache",
        ])
        assert code == 1
        assert "ERROR" in text

    def test_sweep_json_stdout_stays_parseable_on_errors(self, tmp_path):
        """--json must emit the report alone; errors live inside it."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"points": [{"dataset": "bogus"}]}))
        code, text = self.run_cli([
            "sweep", "--spec", str(spec), "--no-cache", "--json",
        ])
        assert code == 1
        payload = json.loads(text)  # the whole stdout is one JSON document
        assert payload["n_errors"] == 1
        assert "bogus" in payload["points"][0]["error"]

    def test_run_outdir_ignored_for_conv_family(self, tmp_path):
        outdir = tmp_path / "bundle"
        code, text = self.run_cli([
            "run", "--dataset", "mnist", "--model-family", "convolutional",
            "--clauses", "4", "--epochs", "1", "--train", "80", "--test",
            "40", "--outdir", str(outdir),
        ])
        assert code == 0
        assert "--outdir ignored" in text
        assert not outdir.exists()

    def test_serve_conv_family_disables_check(self):
        code, text = self.run_cli([
            "serve", "--dataset", "mnist", "--model-family", "convolutional",
            "--clauses", "4", "--epochs", "1", "--train", "80", "--test",
            "40", "--requests", "8", "--max-batch", "4",
        ])
        assert code == 0
        assert "differential checking disabled" in text

    def test_emit_rejects_conv_family(self, tmp_path):
        code, text = self.run_cli([
            "emit", "--dataset", "mnist", "--model-family", "convolutional",
            "--clauses", "4", "--epochs", "1", "--train", "80", "--test",
            "40", "--outdir", str(tmp_path / "rtl"),
        ])
        assert code == 2
        assert "no RTL translation" in text
