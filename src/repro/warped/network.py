"""Network latency model for the virtual cluster.

The paper's testbed interconnect was fast (100 Mb/s) ethernet; the
default model charges its characteristic small-message latency. The
model is deliberately simple — partitioning quality expresses itself
through *how many* messages cross the network, and a constant-latency
FIFO channel preserves per-channel message order, which the
anti-message machinery relies on (an anti-message is always sent after
its positive copy, hence always arrives after it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class UniformNetwork:
    """Same constant latency between every pair of distinct nodes."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ConfigError("network delay must be positive")

    def latency(self, src_node: int, dst_node: int) -> float:
        """One-way delay from *src_node* to *dst_node* (modelled seconds)."""
        if src_node == dst_node:
            return 0.0
        return self.delay


@dataclass(frozen=True)
class FastEthernet(UniformNetwork):
    """100 Mb/s switched ethernet with MPI-over-TCP overheads (~1999).

    Small-message one-way latency on such clusters was measured around
    100–200 µs end to end (kernel TCP stack dominating); the default
    uses 150 µs.
    """

    delay: float = 150e-6
