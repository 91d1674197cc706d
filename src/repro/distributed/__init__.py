"""Distributed-application substrate over spanner overlays.

Broadcast, routing and synchronizers on a perfect network (Section 1.1 of
the paper): the applications whose costs a sparse, light overlay lowers.
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
    Route,
    RoutingReport,
    RoutingScheme,
    evaluate_routing,
    random_demands,
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
    "Route",
    "RoutingReport",
    "RoutingScheme",
    "evaluate_routing",
    "random_demands",
    "OverlayComparison",
    "compare_overlays",
    "overlays_from_builders",
]
