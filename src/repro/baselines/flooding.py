"""Gnutella-style unstructured flooding baseline (paper §2, §4.1.1).

The paper contrasts Squid with unstructured systems: "a keyword search
system like Gnutella would have to query the entire network using some form
of flooding to guarantee that all the matches to a query are returned."
This module quantifies that: documents are placed on random peers (no
structure), peers form a random regular graph, and queries flood with a TTL.

The trade-off it demonstrates:

* full recall requires flooding every reachable peer — O(N · degree)
  messages;
* bounding messages with a TTL sacrifices recall (matches are missed).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

import networkx as nx

from repro.errors import WorkloadError
from repro.keywords.space import KeywordSpace
from repro.util.rng import RandomLike, as_generator

__all__ = ["FloodingStats", "FloodingNetwork"]


@dataclass
class FloodingStats:
    """Cost/recall accounting of one flooded query."""

    messages: int
    nodes_visited: int
    matches_found: int
    total_matches: int

    @property
    def recall(self) -> float:
        if self.total_matches == 0:
            return 1.0
        return self.matches_found / self.total_matches


class FloodingNetwork:
    """An unstructured P2P network with flooding search.

    Peers form a connected random ``degree``-regular graph; published keys
    land on uniformly random peers (there is no placement structure to
    exploit — that is the point of the baseline).
    """

    def __init__(
        self,
        space: KeywordSpace,
        n_nodes: int,
        degree: int = 4,
        rng: RandomLike = None,
    ) -> None:
        if n_nodes < degree + 1:
            raise WorkloadError(
                f"need more than {degree} nodes for a {degree}-regular graph"
            )
        if (n_nodes * degree) % 2:
            raise WorkloadError("n_nodes * degree must be even for a regular graph")
        self.space = space
        self.rng = as_generator(rng)
        seed = int(self.rng.integers(0, 2**31 - 1))
        graph = nx.random_regular_graph(degree, n_nodes, seed=seed)
        attempts = 0
        while not nx.is_connected(graph):  # pragma: no cover - rare
            seed = int(self.rng.integers(0, 2**31 - 1))
            graph = nx.random_regular_graph(degree, n_nodes, seed=seed)
            attempts += 1
            if attempts > 100:
                raise WorkloadError("could not build a connected regular graph")
        self.graph = graph
        self.stores: dict[int, list[tuple[Any, Any]]] = {
            node: [] for node in graph.nodes
        }

    def __len__(self) -> int:
        return self.graph.number_of_nodes()

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, key: Sequence[Any], payload: Any = None) -> int:
        """Place a data element on a uniformly random peer; returns the peer."""
        normalized = self.space.validate_key(key)
        node = int(self.rng.integers(0, len(self)))
        self.stores[node].append((normalized, payload))
        return node

    def publish_many(self, keys: Sequence[Sequence[Any]]) -> None:
        for key in keys:
            self.publish(key)

    def total_matches(self, query) -> int:
        # Stored keys were normalized at publish, as the matcher requires.
        match = self.space.matcher(query)
        return sum(
            1 for store in self.stores.values() for key, _ in store if match(key)
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def query(
        self, query, ttl: int | None = None, origin: int | None = None
    ) -> FloodingStats:
        """Flood the query with ``ttl`` hops (None = unbounded, full recall).

        Messages follow the Gnutella accounting: every edge traversal is one
        message; peers remember seen queries and do not re-flood, but
        duplicate arrivals still cost their message.
        """
        q = self.space.as_query(query)
        match = self.space.matcher(q)
        if origin is None:
            origin = int(self.rng.integers(0, len(self)))
        horizon = ttl if ttl is not None else self.graph.number_of_nodes()
        visited = {origin}
        matches = 0
        messages = 0
        frontier = deque([(origin, 0)])
        while frontier:
            node, depth = frontier.popleft()
            matches += sum(1 for key, _ in self.stores[node] if match(key))
            if depth >= horizon:
                continue
            for neighbor in self.graph.neighbors(node):
                messages += 1  # the query message crosses this edge
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append((neighbor, depth + 1))
        return FloodingStats(
            messages=messages,
            nodes_visited=len(visited),
            matches_found=matches,
            total_matches=self.total_matches(q),
        )
