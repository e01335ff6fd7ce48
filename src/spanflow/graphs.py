"""Terminal multigraphs with exact rational capacities and lengths."""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, NamedTuple

from .metric import TerminalMetric, Vec, as_fraction
from .tightspan import project

Vertex = Hashable


class GraphError(ValueError):
    """Structural problem with a terminal graph."""


class Edge(NamedTuple):
    u: Vertex
    v: Vertex
    capacity: Fraction
    length: Fraction


@dataclass
class TerminalGraph:
    """An undirected multigraph; parallel edges are kept distinct.

    `terminals` maps terminal names to vertex ids.  Lengths may be zero,
    capacities must be positive.
    """
    vertices: list
    edges: list[Edge]
    terminals: dict[str, Vertex]

    def __post_init__(self):
        vset = set(self.vertices)
        norm = []
        for e in self.edges:
            # an Edge of Fractions is kept as it is; anything else is rebuilt
            if not (type(e) is Edge and type(e.capacity) is Fraction
                    and type(e.length) is Fraction):
                e = Edge(e[0], e[1], as_fraction(e[2]), as_fraction(e[3]))
            if e.capacity.numerator <= 0:
                raise GraphError(f"edge ({e.u}, {e.v}) has non-positive capacity {e.capacity}")
            if e.length.numerator < 0:
                raise GraphError(f"edge ({e.u}, {e.v}) has negative length {e.length}")
            if e.u not in vset or e.v not in vset:
                raise GraphError(f"edge ({e.u}, {e.v}) uses an unknown vertex")
            norm.append(e)
        self.edges = norm
        names = list(self.terminals)
        if len(set(self.terminals.values())) != len(names):
            raise GraphError("distinct terminals must occupy distinct vertices")
        for name, v in self.terminals.items():
            if v not in vset:
                raise GraphError(f"terminal {name} assigned to unknown vertex {v}")

    def adjacency(self) -> dict[Vertex, list[tuple[Vertex, Fraction]]]:
        adj: dict[Vertex, list[tuple[Vertex, Fraction]]] = {v: [] for v in self.vertices}
        for u, v, _, length in self.edges:
            adj[u].append((v, length))
            adj[v].append((u, length))
        return adj


def shortest_distances(g: TerminalGraph, source: Vertex,
                       adj: Mapping[Vertex, list] | None = None) -> dict[Vertex, Fraction]:
    """Exact single-source shortest-path distances; unreachable vertices absent."""
    if adj is None:
        adj = g.adjacency()
    if source not in adj:
        raise GraphError(f"unknown source vertex {source}")
    dist: dict[Vertex, Fraction] = {source: Fraction(0)}
    seen: set[Vertex] = set()
    counter = 0
    heap = [(Fraction(0), counter, source)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        for w, length in adj[u]:
            nd = d + length
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, w))
    return dist


def edge_distances(g: TerminalGraph) -> list[Fraction]:
    """Shortest-path distance between the endpoints of every edge, in edge order.

    Each edge is charged to its endpoint of higher degree (ties go to the
    earlier vertex), and one exact Dijkstra runs from each charged endpoint:
    on a star-shaped graph those are its terminals.
    """
    degree = {v: 0 for v in g.vertices}
    for u, v, _, _ in g.edges:
        degree[u] += 1
        degree[v] += 1
    rank = {v: (-degree[v], i) for i, v in enumerate(g.vertices)}
    adj = g.adjacency()
    dists: dict[Vertex, dict[Vertex, Fraction]] = {}
    out = []
    for u, v, _, _ in g.edges:
        src, dst = (u, v) if rank[u] <= rank[v] else (v, u)
        if src not in dists:
            dists[src] = shortest_distances(g, src, adj)
        out.append(dists[src][dst])
    return out


def _terminal_distances(g: TerminalGraph) -> dict[str, dict[Vertex, Fraction]]:
    adj = g.adjacency()
    return {t: shortest_distances(g, v, adj) for t, v in g.terminals.items()}


def _metric_from(g: TerminalGraph, dists: Mapping[str, Mapping]) -> TerminalMetric:
    names = list(g.terminals)
    k = len(names)
    mat = [[Fraction(0)] * k for _ in range(k)]
    for i, t in enumerate(names):
        for j in range(i + 1, k):
            u = names[j]
            if g.terminals[u] not in dists[t]:
                raise GraphError(f"terminals {t} and {u} are disconnected")
            mat[i][j] = mat[j][i] = dists[t][g.terminals[u]]
    return TerminalMetric(names, mat)


def _vectors_from(g: TerminalGraph, dists: Mapping[str, Mapping]) -> dict[Vertex, Vec]:
    out: dict[Vertex, Vec] = {}
    for v in g.vertices:
        vec = {}
        for t, dist in dists.items():
            if v not in dist:
                raise GraphError(f"vertex {v} is disconnected from terminal {t}")
            vec[t] = dist[v]
        out[v] = vec
    return out


def terminal_metric(g: TerminalGraph) -> TerminalMetric:
    """Pairwise terminal shortest-path distances as an exact metric."""
    return _metric_from(g, _terminal_distances(g))


def distance_vectors(g: TerminalGraph) -> dict[Vertex, Vec]:
    """For every vertex, its vector of shortest-path distances to terminals."""
    return _vectors_from(g, _terminal_distances(g))


@dataclass
class EmbeddedGraph:
    """A graph with every vertex mapped to a point of the terminal tight span."""
    graph: TerminalGraph
    metric: TerminalMetric
    points: dict[Vertex, Vec]


def project_graph(g: TerminalGraph) -> EmbeddedGraph:
    """Map every vertex into the tight span of the terminal metric.

    Each vertex's distance vector is projected; terminals land on their own
    metric rows, and for every edge the image distance is at most the edge's
    shortest-path length (projection is non-expanding).  One Dijkstra per
    terminal serves both the metric and the distance vectors.
    """
    dists = _terminal_distances(g)
    m = _metric_from(g, dists)
    vecs = _vectors_from(g, dists)
    points = {v: project(m, vec) for v, vec in vecs.items()}
    for t in g.terminals:
        points[g.terminals[t]] = m.row(t)
    return EmbeddedGraph(graph=g, metric=m, points=points)
