"""Next-hop selection for location-based unicast forwarding."""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Optional, Sequence

from repro.geo.geometry import Point, distance


def greedy_next_hop(
    current: Point,
    destination: Point,
    neighbors: Iterable[int],
    position: Callable[[int], Point],
    exclude: Optional[Collection[int]] = None,
) -> Optional[int]:
    """Neighbour that makes the most progress towards ``destination``.

    ``neighbors`` are node ids, examined in iteration order; ``position``
    looks each one up on demand, so a forwarder can pass its neighbour
    table without building a ``{id: Point}`` dict per hop.

    Returns ``None`` when no neighbour is strictly closer to the
    destination than the current node (the local-maximum / void situation
    greedy forwarding is known for), in which case the caller should switch
    to recovery mode.
    """
    exclude = exclude or ()
    own_distance = distance(current, destination)
    best_id: Optional[int] = None
    best_distance = own_distance
    for node_id in neighbors:
        if node_id in exclude:
            continue
        d = distance(position(node_id), destination)
        if d < best_distance - 1e-12:
            best_distance = d
            best_id = node_id
    return best_id


def recovery_next_hop(
    current: Point,
    destination: Point,
    neighbors: Iterable[int],
    position: Callable[[int], Point],
    visited: Collection[int],
) -> Optional[int]:
    """Recovery forwarding when greedy progress is impossible.

    A simplified stand-in for GPSR's perimeter (right-hand rule) mode: pick
    the unvisited neighbour closest to the destination even if it does not
    make strict progress.  Combined with the per-packet visited set this
    walks the packet around voids and provably terminates (every hop
    consumes one unvisited node).  ``neighbors`` and ``position`` are read
    as by :func:`greedy_next_hop`.
    """
    best_id: Optional[int] = None
    best_distance = float("inf")
    for node_id in neighbors:
        if node_id in visited:
            continue
        d = distance(position(node_id), destination)
        if d < best_distance:
            best_distance = d
            best_id = node_id
    return best_id


def path_stretch(path_positions: Sequence[Point]) -> float:
    """Ratio of the travelled path length to the straight-line distance.

    Used by unit tests and the routing-quality diagnostics; 1.0 means the
    packet travelled along the straight line.
    """
    if len(path_positions) < 2:
        return 1.0
    travelled = sum(
        distance(a, b) for a, b in zip(path_positions, path_positions[1:])
    )
    direct = distance(path_positions[0], path_positions[-1])
    if direct == 0:
        return 1.0
    return travelled / direct
