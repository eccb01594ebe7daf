"""End-to-end MATADOR flow orchestration (the pink main flow of Fig. 6b).

``MatadorFlow`` chains every stage the GUI walks a user through:

  dataset -> train (or import) -> model analysis -> accelerator
  generation -> implementation (synthesis model) -> verification
  (auto-debug) -> deployment bundle

Each stage can be run individually for exploration, or ``run()`` executes
the whole pipeline from a :class:`FlowConfig` and returns a
:class:`FlowResult` carrying every intermediate artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..accelerator.config import AcceleratorConfig
from ..accelerator.generator import generate_accelerator
from ..data.loaders import load_dataset
from ..model.importer import import_model
from ..model.sparsity import analyze_sharing, analyze_sparsity
from ..obs import get_registry
from ..synthesis.power import PowerReport
from ..synthesis.report import implement_design
from ..synthesis.resources import ResourceReport
from ..tsetlin.coalesced import CoalescedTsetlinMachine
from ..tsetlin.convolutional import ConvolutionalTsetlinMachine
from ..tsetlin.machine import TsetlinMachine
from .deploy import write_bundle
from .verify import verify_design

__all__ = ["FlowConfig", "FlowResult", "MatadorFlow"]


@dataclass
class FlowConfig:
    """All user-visible knobs of one flow run."""

    dataset: str = "mnist"
    n_train: int = 600
    n_test: int = 300
    data_seed: int = 0
    clauses_per_class: int = 60
    T: int = 20
    s: float = 5.0
    epochs: int = 8
    train_seed: int = 42
    backend: str = "vectorized"  # training engine; bit-identical across backends
    model_family: str = "flat"  # flat | coalesced | convolutional
    bus_width: int = 64
    pipeline_class_sum: bool = True
    pipeline_argmax: bool = True
    share_logic: bool = True
    prune_passthrough: bool = True
    device: str = "xc7z020"
    clock_mhz: float = None
    name: str = "matador_accel"
    verify_samples: int = 16
    model_path: str = None  # import instead of training when set

    @classmethod
    def from_dict(cls, payload):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown flow config keys: {sorted(unknown)}")
        return cls(**payload)

    def to_dict(self):
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def accelerator_config(self):
        return AcceleratorConfig(
            bus_width=self.bus_width,
            pipeline_class_sum=self.pipeline_class_sum,
            pipeline_argmax=self.pipeline_argmax,
            share_logic=self.share_logic,
            prune_passthrough=self.prune_passthrough,
            name=self.name,
            target=self.device,
        )


@dataclass
class FlowResult:
    """Artifacts of a completed flow."""

    config: FlowConfig
    dataset: object = None
    machine: object = None
    model: object = None
    accuracy: float = None
    sparsity: object = None
    sharing: object = None
    design: object = None
    implementation: object = None
    verification: object = None
    stage_seconds: dict = field(default_factory=dict)

    # Rendered for any stage that did not run, instead of omitting the
    # field — downstream tabulators rely on a stable column set.
    NA = "n/a"

    # Column order follows ImplementationResult.table_row (Table I).
    _IMPL_COLUMNS = (
        *ResourceReport.COLUMNS, *PowerReport.COLUMNS, "Clock (MHz)",
    )

    def table_row(self):
        """One Table-I-style row; skipped stages render as ``n/a``."""
        if self.implementation is not None:
            row = dict(self.implementation.table_row())
        else:
            row = {column: self.NA for column in self._IMPL_COLUMNS}
        row["Test Acc (%)"] = (
            round(100.0 * self.accuracy, 2)
            if self.accuracy is not None else self.NA
        )
        if self.design is not None and self.implementation is not None:
            clock = self.implementation.clock_mhz
            lat = self.design.latency
            row["Latency (us)"] = round(lat.latency_us(clock), 3)
            row["Throughput (inf/s)"] = int(lat.throughput_inf_per_s(clock))
        else:
            row["Latency (us)"] = self.NA
            row["Throughput (inf/s)"] = self.NA
        if self.verification is None:
            row["Verified"] = self.NA
        else:
            row["Verified"] = "pass" if self.verification.passed else "FAIL"
        return row

    def summary(self):
        """Every stage gets a line; skipped stages say so explicitly."""
        def line(label, artifact, render):
            if artifact is None:
                return f"  {label} {self.NA} (stage skipped)"
            return f"  {label} {render(artifact)}"

        return "\n".join([
            f"flow: {self.config.dataset} -> {self.config.name}",
            line("accuracy:", self.accuracy, lambda a: f"{a:.4f}"),
            line("sparsity:", self.sparsity, lambda s: s.summary()),
            line("design:  ", self.design, lambda d: d.summary()),
            line("impl:    ", self.implementation, lambda i: i.summary()),
            line("verify:  ", self.verification, lambda v: v.summary()),
        ])


class MatadorFlow:
    """Stage-by-stage executor for one :class:`FlowConfig`."""

    def __init__(self, config=None, progress=None):
        self.config = config if config is not None else FlowConfig()
        self.result = FlowResult(config=self.config)
        self._progress = progress

    def _log(self, stage, seconds):
        self.result.stage_seconds[stage] = seconds
        get_registry().histogram("flow_stage_seconds",
                                 stage=stage).record(seconds)
        if self._progress is not None:
            self._progress(stage, seconds)

    # ------------------------------------------------------------------
    def load_data(self):
        t0 = time.perf_counter()
        cfg = self.config
        self.result.dataset = load_dataset(
            cfg.dataset, n_train=cfg.n_train, n_test=cfg.n_test, seed=cfg.data_seed
        )
        self._log("load_data", time.perf_counter() - t0)
        return self.result.dataset

    def build_machine(self, ds):
        """Instantiate the configured model family for a dataset.

        Public so external trainers (the successive-halving scheduler's
        epoch-at-a-time ``partial_fit`` loop) can construct the exact
        machine :meth:`train` would, without running the full flow.
        """
        cfg = self.config
        common = dict(
            n_clauses=cfg.clauses_per_class,
            T=cfg.T,
            s=cfg.s,
            seed=cfg.train_seed,
            backend=cfg.backend,
        )
        if cfg.model_family == "flat":
            return TsetlinMachine(ds.n_classes, ds.n_features, **common)
        if cfg.model_family == "coalesced":
            return CoalescedTsetlinMachine(ds.n_classes, ds.n_features, **common)
        if cfg.model_family == "convolutional":
            shape = ds.metadata.get("image_shape")
            if shape is None:
                raise ValueError(
                    f"dataset {ds.name!r} has no image_shape metadata; the "
                    "convolutional family needs 2-D inputs"
                )
            patch = (min(10, shape[0]), min(10, shape[1]))
            return ConvolutionalTsetlinMachine(
                ds.n_classes, shape, patch_shape=patch, **common
            )
        raise ValueError(
            f"unknown model_family {self.config.model_family!r}; "
            "expected flat, coalesced, or convolutional"
        )

    def train(self):
        """Train a TM (or import an external model when configured).

        Returns the frozen :class:`~repro.model.TMModel` for families
        that have a hardware translation (flat, coalesced), or the
        trained machine itself for the convolutional family, which is
        software/serving-only — its hardware stages stay skipped.
        """
        t0 = time.perf_counter()
        cfg = self.config
        ds = self.result.dataset or self.load_data()
        if cfg.model_path:
            model = import_model(cfg.model_path, name=cfg.name)
            if model.n_features != ds.n_features:
                raise ValueError(
                    f"imported model has {model.n_features} features, dataset "
                    f"has {ds.n_features}"
                )
            self.result.model = model
        else:
            tm = self.build_machine(ds)
            tm.fit(ds.X_train, ds.y_train, epochs=cfg.epochs)
            self.result.machine = tm
            if hasattr(tm, "export_model"):
                self.result.model = tm.export_model(cfg.name)
        predictor = self.result.model or self.result.machine
        self.result.accuracy = predictor.evaluate(ds.X_test, ds.y_test)
        self._log("train", time.perf_counter() - t0)
        return predictor

    def _require_model(self):
        """The frozen TMModel, training first if needed (raises for
        families without a hardware translation)."""
        if self.result.model is None and self.result.machine is None:
            self.train()
        if self.result.model is None:
            raise RuntimeError(
                f"model family {self.config.model_family!r} has no frozen "
                "TMModel; the analyze/generate/implement stages are "
                "unavailable"
            )
        return self.result.model

    def analyze(self):
        t0 = time.perf_counter()
        model = self._require_model()
        self.result.sparsity = analyze_sparsity(model)
        self.result.sharing = analyze_sharing(model)
        self._log("analyze", time.perf_counter() - t0)
        return self.result.sparsity, self.result.sharing

    def generate(self):
        t0 = time.perf_counter()
        model = self._require_model()
        self.result.design = generate_accelerator(
            model, self.config.accelerator_config()
        )
        self._log("generate", time.perf_counter() - t0)
        return self.result.design

    def implement(self):
        t0 = time.perf_counter()
        design = self.result.design or self.generate()
        self.result.implementation = implement_design(
            design, clock_mhz=self.config.clock_mhz
        )
        self._log("implement", time.perf_counter() - t0)
        return self.result.implementation

    def verify(self):
        t0 = time.perf_counter()
        design = self.result.design or self.generate()
        ds = self.result.dataset
        X = ds.X_test[: self.config.verify_samples] if ds is not None else None
        self.result.verification = verify_design(design, X)
        self._log("verify", time.perf_counter() - t0)
        return self.result.verification

    def deploy(self, outdir):
        design = self.result.design or self.generate()
        impl = self.result.implementation or self.implement()
        ds = self.result.dataset
        examples = ds.X_test[:2] if ds is not None else None
        return write_bundle(
            outdir,
            design,
            impl,
            self.result.model,
            verification=self.result.verification,
            accuracy=self.result.accuracy,
            example_inputs=examples,
            config=self.config,
        )

    # ------------------------------------------------------------------
    def run(self, verify=True):
        """Execute the full pipeline and return the :class:`FlowResult`.

        Families without a hardware translation (convolutional) stop
        after training; the skipped stages stay ``None`` and render as
        ``n/a`` in :meth:`FlowResult.table_row` / ``summary``.
        """
        self.load_data()
        self.train()
        if self.result.model is not None:
            self.analyze()
            self.generate()
            self.implement()
            if verify:
                self.verify()
        return self.result
