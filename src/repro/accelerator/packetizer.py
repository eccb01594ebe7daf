"""Bandwidth-driven data partitioning (Fig. 4a).

The processor sends each booleanized datapoint to the fabric as a sequence
of bus-width packets over AXI-stream.  The Packetizer orders features from
the least significant bit and zero-pads the final packet.  A 784-bit MNIST
datapoint over a 64-bit channel therefore becomes 13 packets, the last one
carrying 16 valid bits and 48 zeros — exactly the figure's example.

:class:`PacketSchedule` is the static description shared by the host-side
packetizer and the hardware generator: packet ``i`` carries features
``[i * W, min((i + 1) * W, F))``, and the HCB for packet ``i`` contains the
include decisions for precisely those features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tsetlin.inference import check_features

__all__ = ["PacketSchedule", "packetize", "depacketize"]


@dataclass(frozen=True)
class PacketSchedule:
    """Static packetization plan for one model/bus pairing."""

    n_features: int
    bus_width: int

    def __post_init__(self):
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if self.bus_width < 1:
            raise ValueError("bus_width must be >= 1")

    @property
    def n_packets(self):
        """Packets per datapoint: ``ceil(features / bus_width)``."""
        return -(-self.n_features // self.bus_width)

    @property
    def padding_bits(self):
        """Zero bits appended to the last packet."""
        return self.n_packets * self.bus_width - self.n_features

    def feature_range(self, packet_index):
        """Half-open feature range ``[lo, hi)`` carried by a packet."""
        if not 0 <= packet_index < self.n_packets:
            raise IndexError(f"packet index {packet_index} out of range")
        lo = packet_index * self.bus_width
        hi = min(lo + self.bus_width, self.n_features)
        return lo, hi

    def packet_of_feature(self, feature):
        """Which packet carries a given feature."""
        if not 0 <= feature < self.n_features:
            raise IndexError(f"feature {feature} out of range")
        return feature // self.bus_width

    def lane_of_feature(self, feature):
        """Bit lane of the bus on which a feature travels."""
        return feature % self.bus_width


def packetize(X, schedule):
    """Packetize a batch of boolean datapoints.

    Parameters
    ----------
    X:
        ``(samples, n_features)`` array of 0/1; any other value raises.
    schedule:
        The :class:`PacketSchedule` for the target accelerator.

    Returns
    -------
    ``(samples, n_packets)`` uint64 array (bus words, LSB = lowest feature).
    Bus widths above 64 are not representable as single words and raise.
    """
    if schedule.bus_width > 64:
        raise ValueError("packetize supports bus widths up to 64 bits")
    X = check_features(X, schedule.n_features)
    n = X.shape[0]
    padded = np.zeros((n, schedule.n_packets * schedule.bus_width), dtype=np.uint64)
    padded[:, : schedule.n_features] = X
    lanes = padded.reshape(n, schedule.n_packets, schedule.bus_width)
    weights = np.uint64(1) << np.arange(schedule.bus_width, dtype=np.uint64)
    return (lanes * weights[np.newaxis, np.newaxis, :]).sum(axis=2, dtype=np.uint64)


def depacketize(packets, schedule):
    """Inverse of :func:`packetize` (drops the zero padding)."""
    packets = np.asarray(packets, dtype=np.uint64)
    if packets.ndim == 1:
        packets = packets[np.newaxis, :]
    if packets.shape[1] != schedule.n_packets:
        raise ValueError(
            f"expected {schedule.n_packets} packets, got {packets.shape[1]}"
        )
    n = packets.shape[0]
    shifts = np.arange(schedule.bus_width, dtype=np.uint64)
    lanes = (packets[:, :, np.newaxis] >> shifts) & np.uint64(1)
    flat = lanes.reshape(n, -1)[:, : schedule.n_features]
    return flat.astype(np.uint8)
