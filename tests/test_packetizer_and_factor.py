"""Tests for bandwidth-driven packetization (Fig. 4a) and cube factoring."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.factor import factor_cubes
from repro.accelerator.packetizer import PacketSchedule, depacketize, packetize


class TestScheduleFig4:
    def test_paper_example_mnist_64bit(self):
        """Fig. 4(a): 784-bit MNIST over a 64-bit channel = 13 packets."""
        sched = PacketSchedule(n_features=784, bus_width=64)
        assert sched.n_packets == 13
        assert sched.padding_bits == 13 * 64 - 784  # 48 zero bits

    def test_exact_fit_no_padding(self):
        sched = PacketSchedule(n_features=128, bus_width=64)
        assert sched.n_packets == 2
        assert sched.padding_bits == 0

    def test_single_packet(self):
        sched = PacketSchedule(n_features=20, bus_width=64)
        assert sched.n_packets == 1

    def test_feature_ranges_partition(self):
        sched = PacketSchedule(n_features=150, bus_width=64)
        ranges = [sched.feature_range(p) for p in range(sched.n_packets)]
        assert ranges == [(0, 64), (64, 128), (128, 150)]

    def test_packet_and_lane_of_feature(self):
        sched = PacketSchedule(n_features=100, bus_width=32)
        assert sched.packet_of_feature(0) == 0
        assert sched.packet_of_feature(99) == 3
        assert sched.lane_of_feature(33) == 1

    def test_bounds_checked(self):
        sched = PacketSchedule(n_features=10, bus_width=8)
        with pytest.raises(IndexError):
            sched.feature_range(2)
        with pytest.raises(IndexError):
            sched.packet_of_feature(10)
        with pytest.raises(ValueError):
            PacketSchedule(n_features=0, bus_width=8)


class TestPacketize:
    def test_lsb_first_ordering(self):
        """Fig. 4(a): data ordered from the least significant bit."""
        sched = PacketSchedule(n_features=8, bus_width=8)
        X = np.zeros((1, 8), dtype=np.uint8)
        X[0, 0] = 1  # feature 0 -> bit 0
        X[0, 7] = 1  # feature 7 -> bit 7
        words = packetize(X, sched)
        assert words[0, 0] == 0b10000001

    def test_zero_padding_in_last_packet(self):
        sched = PacketSchedule(n_features=10, bus_width=8)
        X = np.ones((1, 10), dtype=np.uint8)
        words = packetize(X, sched)
        assert words[0, 0] == 0xFF
        assert words[0, 1] == 0b00000011  # upper 6 bits zero-padded

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        sched = PacketSchedule(n_features=100, bus_width=64)
        X = rng.integers(0, 2, size=(17, 100)).astype(np.uint8)
        assert np.array_equal(depacketize(packetize(X, sched), sched), X)

    def test_wide_bus_rejected(self):
        sched = PacketSchedule(n_features=100, bus_width=128)
        with pytest.raises(ValueError):
            packetize(np.zeros((1, 100), dtype=np.uint8), sched)

    def test_shape_checked(self):
        sched = PacketSchedule(n_features=16, bus_width=8)
        with pytest.raises(ValueError):
            packetize(np.zeros((1, 15), dtype=np.uint8), sched)
        with pytest.raises(ValueError):
            depacketize(np.zeros((1, 3), dtype=np.uint64), sched)


@settings(max_examples=30, deadline=None)
@given(
    n_features=st.integers(1, 96),
    bus_width=st.integers(1, 64),
    seed=st.integers(0, 1000),
)
def test_packetize_roundtrip_property(n_features, bus_width, seed):
    sched = PacketSchedule(n_features=n_features, bus_width=bus_width)
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(5, n_features)).astype(np.uint8)
    assert np.array_equal(depacketize(packetize(X, sched), sched), X)


def expand(symbols, steps):
    """Flatten factored symbols back to the base literal set."""
    table = {sym: (a, b) for sym, a, b in steps}
    out = set()

    def walk(s):
        if isinstance(s, tuple) and s and s[0] == "f":
            a, b = table[s]
            walk(a)
            walk(b)
        else:
            out.add(s)

    for s in symbols:
        walk(s)
    return out


class TestFactorCubes:
    def test_shared_pair_extracted(self):
        cubes = [[1, 2, 3], [1, 2, 4], [1, 2]]
        res = factor_cubes(cubes)
        assert res.n_extracted >= 1
        sym, a, b = res.steps[0]
        assert {a, b} == {1, 2}

    def test_semantics_preserved(self):
        cubes = [[1, 2, 3], [2, 3, 4], [1, 4], [5]]
        res = factor_cubes(cubes)
        for original, factored in zip(cubes, res.cubes):
            assert expand(factored, res.steps) == set(original)

    def test_no_sharing_no_steps(self):
        res = factor_cubes([[1, 2], [3, 4], [5]])
        assert res.n_extracted == 0

    def test_min_count_respected(self):
        cubes = [[1, 2, 9], [1, 2, 8]]  # pair (1,2) occurs twice
        assert factor_cubes(cubes, min_count=3).n_extracted == 0
        assert factor_cubes(cubes, min_count=2).n_extracted == 1

    def test_max_steps_cap(self):
        cubes = [[1, 2, 3, 4]] * 4
        res = factor_cubes(cubes, max_steps=1)
        assert res.n_extracted == 1

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            factor_cubes([[1, 2]], min_count=1)


@settings(max_examples=40, deadline=None)
@given(
    cubes=st.lists(
        st.lists(st.integers(0, 12), min_size=1, max_size=6),
        min_size=1,
        max_size=10,
    )
)
def test_factoring_preserves_conjunctions(cubes):
    """Property: expanding every factored cube recovers the original set."""
    res = factor_cubes(cubes)
    assert len(res.cubes) == len(cubes)
    for original, factored in zip(cubes, res.cubes):
        assert expand(factored, res.steps) == set(original)


_NETLIST_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from _fixtures import random_model
from repro.accelerator import AcceleratorConfig, generate_accelerator
model = random_model(n_classes=4, n_clauses=32, n_features=40,
                     density=0.15, seed=5)
design = generate_accelerator(model, AcceleratorConfig(name="hashseed"))
print(json.dumps([[n.kind, list(n.fanins)] for n in design.netlist.nodes]))
"""


def test_netlist_independent_of_hash_seed():
    """Factoring walks sets of ("f", n) tuples; the generated netlist
    must not depend on their per-process hash order."""
    tests_dir = Path(__file__).parent
    src_dir = tests_dir.parent / "src"
    netlists = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(src_dir), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _NETLIST_SCRIPT, str(tests_dir)],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        netlists.append(json.loads(proc.stdout))
    assert len(netlists[0]) > 1000
    assert netlists[0] == netlists[1]


def _loop_literal_cubes(nl, include, lo, hi, data_bus):
    """The per-feature loop ``_literal_cubes`` replaced (the reference)."""
    n_classes, n_clauses, width = include.shape
    n_features = width // 2
    cube_index, cubes = {}, []
    for c in range(n_classes):
        for k in range(n_clauses):
            row = include[c, k]
            terms = []
            for f in range(lo, hi):
                if row[f]:
                    terms.append(data_bus[f - lo])
                if row[n_features + f]:
                    terms.append(nl.g_not(data_bus[f - lo]))
            if terms:
                cube_index[(c, k)] = len(cubes)
                cubes.append(terms)
    return cube_index, cubes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), share=st.booleans(),
       density=st.sampled_from([0.0, 0.05, 0.3, 0.9]))
def test_literal_cubes_match_the_feature_loop(seed, share, density):
    from repro.accelerator.hcb import _literal_cubes
    from repro.rtl import Netlist, bus_input

    rng = np.random.default_rng(seed)
    include = rng.random((3, 5, 2 * 12)) < density  # x_f and ~x_f may mix
    lo, hi = sorted(rng.integers(0, 13, size=2).tolist())
    built = []
    for collect in (_literal_cubes, _loop_literal_cubes):
        nl = Netlist("cubes", share=share)
        bus = bus_input(nl, "d", 12)
        cubes = collect(nl, include, lo, hi, list(bus)[: hi - lo])
        built.append((cubes, [(n.kind, n.fanins) for n in nl.nodes]))
    assert built[0] == built[1]
