"""The exact model configurations of Table II.

Both sides of the comparison: the FINN network topologies (with their
weight/activation quantization) and the MATADOR clause budgets, per
dataset.  The Table I/II benches read from here so the harness and the
docs can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FinnTopology", "MatadorConfigSpec", "TABLE_II", "finn_topology", "matador_spec"]


@dataclass(frozen=True)
class FinnTopology:
    """One FINN network row of Table II."""

    dataset: str
    layer_sizes: tuple
    input_bits: int
    weight_bits: int
    act_bits: int
    clock_mhz: float = 100.0


@dataclass(frozen=True)
class MatadorConfigSpec:
    """One MATADOR row of Table II (clauses per class)."""

    dataset: str
    clauses_per_class: int
    T: int
    s: float


# Table II verbatim (hyperparameters T/s are not printed in the paper; the
# values here follow the REDRESS guidance of T ~ clauses/10, s in 3-10).
TABLE_II = {
    "mnist": {
        "finn": FinnTopology("mnist", (784, 64, 64, 64, 10), 1, 1, 1),
        "bnn_ref": FinnTopology("mnist", (784, 256, 256, 256, 10), 1, 1, 1),
        "matador": MatadorConfigSpec("mnist", 200, 20, 5.0),
    },
    "kws6": {
        "finn": FinnTopology("kws6", (377, 512, 256, 6), 1, 2, 2),
        "matador": MatadorConfigSpec("kws6", 300, 25, 4.0),
    },
    "cifar2": {
        "finn": FinnTopology("cifar2", (1024, 256, 128, 2), 1, 1, 2),
        "matador": MatadorConfigSpec("cifar2", 1000, 60, 6.0),
    },
    "fmnist": {
        "finn": FinnTopology("fmnist", (784, 256, 256, 10), 1, 2, 2),
        "matador": MatadorConfigSpec("fmnist", 500, 40, 5.0),
    },
    "kmnist": {
        "finn": FinnTopology("kmnist", (784, 256, 256, 10), 1, 2, 2),
        "matador": MatadorConfigSpec("kmnist", 500, 40, 5.0),
    },
}


def finn_topology(dataset):
    """The FINN topology evaluated for a dataset."""
    key = dataset.lower().replace("-like", "")
    if key not in TABLE_II:
        raise KeyError(f"no Table II entry for {dataset!r}")
    return TABLE_II[key]["finn"]


def matador_spec(dataset):
    """The MATADOR clause budget evaluated for a dataset."""
    key = dataset.lower().replace("-like", "")
    if key not in TABLE_II:
        raise KeyError(f"no Table II entry for {dataset!r}")
    return TABLE_II[key]["matador"]
