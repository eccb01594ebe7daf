"""Shared fixtures: small trained models and random include matrices."""

from __future__ import annotations

import multiprocessing
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _fixtures import random_model  # noqa: E402  (shared, importable helper)
from repro.data import load_dataset  # noqa: E402
from repro.tsetlin import TsetlinMachine  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def no_leaked_fabric_resources():
    """Fail the run if it leaves fabric workers or shared-memory rings.

    Process replicas name their ring segments ``tmfab-<parent pid>-...``
    and their workers ``fabric-replica-<index>``; both must be gone once
    every test has closed its pools.
    """
    yield
    shm = Path("/dev/shm")
    rings = (sorted(p.name for p in shm.glob(f"tmfab-{os.getpid()}-*"))
             if shm.is_dir() else [])
    workers = [p.name for p in multiprocessing.active_children()
               if p.name.startswith("fabric-replica-")]
    assert not rings and not workers, (
        f"leaked shared-memory rings {rings} and workers {workers}")


@pytest.fixture(scope="session")
def kws_dataset():
    return load_dataset("kws6", n_train=240, n_test=120, seed=0)


@pytest.fixture(scope="session")
def trained_model(kws_dataset):
    """A small trained model shared by the expensive integration tests."""
    ds = kws_dataset
    tm = TsetlinMachine(
        ds.n_classes, ds.n_features, n_clauses=16, T=12, s=4.0, seed=7
    )
    tm.fit(ds.X_train, ds.y_train, epochs=4)
    return tm.export_model("kws6_test")


@pytest.fixture()
def small_model():
    return random_model()


@pytest.fixture()
def tiny_model():
    return random_model(n_classes=2, n_clauses=4, n_features=10, density=0.2, seed=3)
