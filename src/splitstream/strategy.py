"""Where-to-run selection from a simple additive latency model.

Each strategy is summarized by its fixed cost b (compute plus round trip)
and its payload D; total latency over a network with bandwidth B and round
trip RTT is

    client_only:  I_c                      (nothing leaves the device)
    otherwise:    b + D / B,   b = I_c + E_c + E_s + I_s + RTT

With several strategies profiled, each bandwidth regime has a latency-
minimal choice, and adjacent regimes meet at the closed-form crossover
B* = (D2 - D1) / (b1 - b2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "StrategyProfile",
    "NetworkConditions",
    "total_latency",
    "best_strategy",
    "crossover_bandwidth",
    "latency_regions",
]


@dataclass(frozen=True)
class StrategyProfile:
    """Measured per-frame costs of one execution strategy (seconds/bytes).

    kind is "client_only", "server_only" or "split"; split strategies name
    their cut point.
    """

    name: str
    kind: str
    client_infer_s: float = 0.0   # I_c
    client_encode_s: float = 0.0  # E_c
    server_decode_s: float = 0.0  # E_s
    server_infer_s: float = 0.0   # I_s
    payload_bytes: float = 0.0    # D
    cut: str = ""

    def __post_init__(self):
        if self.kind not in ("client_only", "server_only", "split"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "client_only" and (
            self.payload_bytes or self.client_encode_s
            or self.server_decode_s or self.server_infer_s
        ):
            raise ValueError("client_only carries no payload or server costs")
        if min(
            self.client_infer_s, self.client_encode_s,
            self.server_decode_s, self.server_infer_s, self.payload_bytes,
        ) < 0:
            raise ValueError("costs must be non-negative")

    @property
    def fixed_cost_s(self) -> float:
        """I_c + E_c + E_s + I_s: the compute part of b, which adds the RTT."""
        return (
            self.client_infer_s + self.client_encode_s
            + self.server_decode_s + self.server_infer_s
        )


@dataclass(frozen=True)
class NetworkConditions:
    bandwidth_bps: float      # bytes per second
    rtt_s: float = 0.0

    def __post_init__(self):
        if self.bandwidth_bps < 0 or self.rtt_s < 0:
            raise ValueError("network conditions must be non-negative")


def _intercept(profile: StrategyProfile, rtt_s: float) -> float:
    """b, the latency at infinite bandwidth: I_c for client_only, otherwise
    the compute costs plus the round trip."""
    if profile.kind == "client_only":
        return profile.client_infer_s
    return profile.fixed_cost_s + rtt_s


def total_latency(profile: StrategyProfile, net: NetworkConditions) -> float:
    """Per-frame latency in seconds; +inf when a network strategy meets a
    dead link."""
    b = _intercept(profile, net.rtt_s)
    if profile.kind == "client_only":
        return b
    if net.bandwidth_bps == 0.0:
        return math.inf
    return b + profile.payload_bytes / net.bandwidth_bps


def best_strategy(profiles, net: NetworkConditions) -> StrategyProfile:
    """Latency argmin; ties prefer the smaller payload, then the name."""
    candidates = list(profiles)
    if not candidates:
        raise ValueError("no strategies to choose from")
    return min(
        candidates,
        key=lambda p: (total_latency(p, net), p.payload_bytes, p.name),
    )


def crossover_bandwidth(p1: StrategyProfile, p2: StrategyProfile,
                        rtt_s: float = 0.0) -> float | None:
    """Bandwidth where the two latency lines intersect, or None.

    Treating latency as b + D/B (with b = I_c for client_only, D = 0), the
    crossing is B* = (D2 - D1) / (b1 - b2); only a positive finite value
    is a real regime boundary.
    """
    b1, b2 = _intercept(p1, rtt_s), _intercept(p2, rtt_s)
    if b1 == b2:
        return None
    bstar = (p2.payload_bytes - p1.payload_bytes) / (b1 - b2)
    if not math.isfinite(bstar) or bstar <= 0:
        return None
    return bstar


def latency_regions(profiles, bandwidths, rtt_s: float = 0.0) -> list[dict]:
    """Best strategy and its latency at each bandwidth point."""
    rows = []
    for bw in bandwidths:
        net = NetworkConditions(bandwidth_bps=float(bw), rtt_s=rtt_s)
        best = best_strategy(profiles, net)
        rows.append(
            {
                "bandwidth": float(bw),
                "strategy": best.name,
                "latency": total_latency(best, net),
            }
        )
    return rows
