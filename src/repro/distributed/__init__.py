"""Distributed-application substrate over spanner overlays.

Broadcast, routing and synchronizers on a perfect network, plus the
robustness layer: seeded fault plans (:mod:`repro.distributed.faults`),
ack/retry-hardened protocols (:mod:`repro.distributed.resilient`) and
detour routing around failed links (:mod:`repro.distributed.routing`).
"""

from repro.distributed.network import Message, Network, NetworkStatistics
from repro.distributed.engine import (
    EchoResult,
    FloodRun,
    echo_convergecast,
    indexed_flood,
    indexed_overlay,
)
from repro.distributed.broadcast import (
    BroadcastResult,
    broadcast_over_overlay,
    flood_broadcast,
    flood_broadcast_with_tree,
)
from repro.distributed.synchronizer import (
    SynchronizerCost,
    synchronizer_cost,
)
from repro.distributed.routing import (
    DetourReport,
    Route,
    RoutingReport,
    RoutingScheme,
    evaluate_detour_routing,
    evaluate_routing,
    random_demands,
)
from repro.distributed.faults import FaultPlan, edge_key
from repro.distributed.resilient import (
    ResilientEchoResult,
    ResilientParams,
    ResilientResult,
    ResilientStatistics,
    delivery_report,
    resilient_echo,
    resilient_flood,
)
from repro.distributed.comparison import (
    OverlayComparison,
    compare_overlays,
    overlays_from_builders,
)

__all__ = [
    "Message",
    "Network",
    "NetworkStatistics",
    "EchoResult",
    "FloodRun",
    "echo_convergecast",
    "indexed_flood",
    "indexed_overlay",
    "BroadcastResult",
    "broadcast_over_overlay",
    "flood_broadcast",
    "flood_broadcast_with_tree",
    "SynchronizerCost",
    "synchronizer_cost",
    "DetourReport",
    "Route",
    "RoutingReport",
    "RoutingScheme",
    "evaluate_detour_routing",
    "evaluate_routing",
    "random_demands",
    "FaultPlan",
    "edge_key",
    "ResilientEchoResult",
    "ResilientParams",
    "ResilientResult",
    "ResilientStatistics",
    "delivery_report",
    "resilient_echo",
    "resilient_flood",
    "OverlayComparison",
    "compare_overlays",
    "overlays_from_builders",
]
