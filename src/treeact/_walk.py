"""The one breadth-first traversal behind every closure and tree search."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, TypeVar

N = TypeVar("N", bound=Hashable)


def walk(
    start: N, neighbours: Callable[[N], Iterable[N]]
) -> Iterator[tuple[N, N | None, int | None, int]]:
    """Yield ``(node, parent, k, depth)`` for every node reachable from start.

    Nodes come level by level, each as it is first discovered: ``parent`` is
    the node whose expansion found it and ``k`` its index in
    ``neighbours(parent)``.  The start node comes first, with parent and k
    None and depth 0.  The order depends only on the order ``neighbours``
    returns.  Nodes are expanded lazily, so a caller that stops early (at a
    cap, a radius or a target) never pays for the rest of the graph.
    """
    yield start, None, None, 0
    seen = {start}
    level = [start]
    depth = 0
    while level:
        depth += 1
        found = []
        for parent in level:
            for k, node in enumerate(neighbours(parent)):
                if node not in seen:
                    seen.add(node)
                    found.append(node)
                    yield node, parent, k, depth
        level = found
