"""Terminal multigraphs with exact rational capacities and lengths.

Shortest paths run on ints: a graph's lengths share one scale, the lcm of
their denominators, and Dijkstra adds and compares the scaled ints.  The
embedding stays on that lattice (`project_graph` projects the scaled
distance vectors with `tightspan.int_project` and keeps the int points), and
distances and points become Fractions only where they leave the module.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Hashable, Mapping, NamedTuple

from .metric import TerminalMetric, Vec, as_fraction
from .tightspan import FractionTable, int_project, lattice_ints

Vertex = Hashable


class GraphError(ValueError):
    """Structural problem with a terminal graph."""


class Edge(NamedTuple):
    u: Vertex
    v: Vertex
    capacity: Fraction
    length: Fraction


class _LengthTable(NamedTuple):
    """An adjacency with its lengths as ints on the lattice 1/scale.

    `adj[u]` is the pair (neighbours, lengths) of parallel tuples; a graph
    keeps its table, so it is stored compactly.
    """
    adj: dict[Vertex, tuple[tuple[Vertex, ...], tuple[int, ...]]]
    scale: int


@dataclass
class TerminalGraph:
    """An undirected multigraph; parallel edges are kept distinct.

    `terminals` maps terminal names to vertex ids.  Lengths may be zero,
    capacities must be positive.  The first shortest-path query builds the
    int length table that later ones reuse, so edges must not change after it.
    """
    vertices: list
    edges: list[Edge]
    terminals: dict[str, Vertex]
    _lengths: _LengthTable | None = field(default=None, init=False, repr=False,
                                          compare=False)

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

    def length_table(self) -> _LengthTable:
        """The int adjacency on the graph's length scale, built on first use."""
        if self._lengths is None:
            (ints,), scale = lattice_ints([[e.length for e in self.edges]])
            nbrs: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
            lens: dict[Vertex, list[int]] = {v: [] for v in self.vertices}
            for (u, v, _, _), n in zip(self.edges, ints):
                nbrs[u].append(v)
                lens[u].append(n)
                nbrs[v].append(u)
                lens[v].append(n)
            self._lengths = _LengthTable({u: (tuple(nbrs[u]), tuple(lens[u])) for u in nbrs},
                                         scale)
        return self._lengths


class Distances(dict):
    """Exact shortest-path distances from one source, as Fractions.

    `ints` holds the same distances as ints on the length scale `scale`.
    """

    def __init__(self, ints: dict[Vertex, int], scale: int):
        super().__init__(zip(ints, map(FractionTable(scale).__getitem__, ints.values())))
        self.ints = ints
        self.scale = scale


def shortest_distances(g: TerminalGraph, source: Vertex) -> Distances:
    """Exact single-source shortest-path distances; unreachable vertices absent.

    Runs on g's int length table.
    """
    nbrs, scale = g.length_table()
    if source not in nbrs:
        raise GraphError(f"unknown source vertex {source}")
    dist: dict[Vertex, int] = {source: 0}
    push, pop = heapq.heappush, heapq.heappop
    counter = 0
    heap = [(0, counter, source)]
    while heap:
        d, _, u = pop(heap)
        if d > dist[u]:  # a stale entry; u was settled at a shorter distance
            continue
        for w, length in zip(*nbrs[u]):
            nd = d + length
            old = dist.get(w)
            if old is None or nd < old:
                dist[w] = nd
                counter += 1
                push(heap, (nd, counter, w))
    return Distances(dist, scale)


def edge_distance_ints(g: TerminalGraph, known: Mapping[Vertex, Distances] | None = None
                       ) -> list[int]:
    """Shortest-path distance between the endpoints of every edge, in edge
    order, as ints on g's length scale.

    An edge reads the distance map of an endpoint that already has one;
    otherwise it is charged to its endpoint of higher degree (ties go to the
    earlier vertex), and one exact Dijkstra runs from that endpoint: on a
    star-shaped graph those are its terminals.  `known` maps source vertices
    to the `shortest_distances(g, source)` maps a caller already holds; an
    edge with an endpoint among them reads that map and runs no Dijkstra.
    """
    adj = g.length_table().adj
    rank = {v: (-len(adj[v][0]), i) for i, v in enumerate(g.vertices)}
    dists = dict(known or {})
    out = []
    for u, v, _, _ in g.edges:
        src, dst = (u, v) if rank[u] <= rank[v] else (v, u)
        if src not in dists:
            if dst in dists:
                src, dst = dst, src
            else:
                dists[src] = shortest_distances(g, src)
        out.append(dists[src].ints[dst])
    return out


def _terminal_distances(g: TerminalGraph) -> dict[str, Distances]:
    return {t: shortest_distances(g, v) for t, v in g.terminals.items()}


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


def _vector_ints(dists: Mapping[str, Distances], v: Vertex) -> list[int]:
    """v's distances to the terminals, as ints in terminal order."""
    out = []
    for t, dist in dists.items():
        n = dist.ints.get(v)
        if n is None:
            raise GraphError(f"vertex {v} is disconnected from terminal {t}")
        out.append(n)
    return out


def terminal_metric(g: TerminalGraph) -> TerminalMetric:
    """Pairwise terminal shortest-path distances as an exact metric."""
    return _metric_from(g, _terminal_distances(g))


def distance_vectors(g: TerminalGraph) -> dict[Vertex, Vec]:
    """For every vertex, its vector of shortest-path distances to terminals."""
    dists = _terminal_distances(g)
    frac = FractionTable(g.length_table().scale)
    return {v: dict(zip(dists, map(frac.__getitem__, _vector_ints(dists, v))))
            for v in g.vertices}


@dataclass
class EmbeddedGraph:
    """A graph with every vertex mapped to a point of the terminal tight span.

    `ipoints[v]` is v's point as ints in terminal order on `scale`, and
    `points[v]` the same point as a Fraction vector, built on first read.
    `distances` maps each terminal vertex to its `shortest_distances` map,
    which `edge_distance_ints` can reuse.
    """
    graph: TerminalGraph
    metric: TerminalMetric
    ipoints: dict[Vertex, tuple[int, ...]]
    scale: int
    distances: dict[Vertex, Distances] = field(default_factory=dict, repr=False)

    @cached_property
    def points(self) -> dict[Vertex, Vec]:
        frac, ts = FractionTable(self.scale), self.metric.terminals
        return {v: dict(zip(ts, map(frac.__getitem__, p))) for v, p in self.ipoints.items()}


def project_graph(g: TerminalGraph) -> EmbeddedGraph:
    """Map every vertex into the tight span of the terminal metric.

    Each vertex's distance vector is projected; terminals land on their own
    metric rows, and for every edge the image distance is at most the edge's
    shortest-path length (projection is non-expanding).  One Dijkstra per
    terminal serves the metric, the distance vectors and, through
    `distances`, the identity cost.  The projection runs on twice the graph's
    length scale, where `int_project` halves exactly, and stays there.
    """
    dists = _terminal_distances(g)
    m = _metric_from(g, dists)
    d = [tuple(2 * n for n in _vector_ints(dists, g.terminals[t])) for t in dists]
    points = {v: tuple(int_project(d, [2 * n for n in _vector_ints(dists, v)]))
              for v in g.vertices}
    points.update(zip(g.terminals.values(), d))
    return EmbeddedGraph(graph=g, metric=m, ipoints=points, scale=2 * g.length_table().scale,
                         distances={g.terminals[t]: dist for t, dist in dists.items()})
