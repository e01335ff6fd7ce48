"""Tight span of a finite metric: membership, projection, distances, cells.

The tight span of a metric D on terminals T is the set of nonnegative vectors
x indexed by T with x_t = max_u (D(t, u) - x_u); equivalently, x satisfies all
pair inequalities x_t + x_u >= D(t, u) (including t = u, which gives x >= 0)
and every coordinate sits in at least one tight pair.  It equals the union of
the bounded faces of the polyhedron cut out by those inequalities, which is
what :func:`enumerate_complex` computes, exactly, for up to six terminals: an
integer walk over the bounded edges finds the vertices, and intersections of
their tight sets give the faces.  One integer solver for tight pair systems
(`_tight_system`, a signed BFS) gives the walk's edge directions, each
cell's dimension and :func:`cell_point`, the point of a cell where some
coordinates take given values, on any multiple of the complex's constraint
scale.  :class:`PointLattice` holds a fixed set of span points as ints on one
common scale, for code that measures many distances between the same points.

Membership and projection run on ints too: :func:`to_lattice` puts a metric
and points on the lcm of their denominators (:func:`on_scale` one value on a
given scale), and :func:`int_in_span` and :func:`int_project` work there;
:func:`in_tight_span` and :func:`project` are their Fraction forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul, sub
from typing import Iterable, Mapping, Sequence

import numpy as np

from .metric import (MetricError, TerminalMetric, Vec, as_fraction, check_vector,
                     validate_metric)


class UnsupportedSizeError(MetricError):
    """Raised when cell enumeration is asked for more than six terminals."""


def lattice_ints(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The rows as ints on S, the lcm of all their denominators, and S."""
    S = lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (S // x.denominator) for x in row] for row in rows], S


def dyadic_ints(x: np.ndarray) -> tuple[list[int], int]:
    """Finite floats as ints on one power-of-two scale S: x[i] = ints[i] / S exactly."""
    m, e = np.frexp(x)   # x = m * 2**e with m * 2**53 an int
    e = e.astype(np.int64) - 53
    low = int(e.min(initial=0))   # <= 0, so S = 2**-low is an int
    return [v << s for v, s in zip((m * 2.0 ** 53).astype(np.int64).tolist(),
                                   (e - low).tolist())], 1 << -low


def on_scale(x: Fraction, scale: int) -> int:
    """x * scale, for a scale that x's denominator divides (else `MetricError`)."""
    q, r = divmod(scale, x.denominator)
    if r:
        raise MetricError(f"{x} is not on the 1/{scale} lattice")
    return x.numerator * q


def weighted_sum(caps: Sequence[Fraction], ints: Iterable[int], scale: int) -> Fraction:
    """sum(caps[i] * ints[i]) / scale, exactly: the capacities on their common
    denominator (`lattice_ints`), one int dot product, one Fraction."""
    (cs,), cscale = lattice_ints([caps])
    return Fraction(sum(map(mul, cs, ints)), cscale * scale)


def to_lattice(m: TerminalMetric, points: Iterable[Mapping[str, Fraction]]
               ) -> tuple[list[list[int]], list[list[int]], int]:
    """The metric and the points as ints on one scale S, and S.

    S is the lcm of the denominators of the metric and of every coordinate;
    each point becomes its S-scaled coordinates in terminal order.  A point
    whose keys are not exactly the terminals raises `MetricError`.
    """
    ts = m.terminals
    names = set(ts)
    rows = []
    for p in points:
        if p.keys() != names:
            raise MetricError(f"point over {sorted(p)} is not over the terminals {list(ts)}")
        rows.append([p[t] for t in ts])
    ints, scale = lattice_ints([*m.matrix(), *rows])
    return ints[:len(ts)], ints[len(ts):], scale


def int_in_span(d: Sequence[Sequence[int]], x: Sequence[int]) -> bool:
    """`in_tight_span` on ints: the matrix d and the vector x on one scale."""
    for t, xt in enumerate(x):
        if xt < 0:
            return False
        tight = False
        for xu, dtu in zip(x, d[t]):
            slack = xt + xu - dtu
            if slack < 0:
                return False
            tight = tight or slack == 0  # at u = t: x_t = 0, the self pair
        if not tight:
            return False
    return True


def int_project(d: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    """`project` on ints: the matrix d and the vector x on one even lattice.

    Every entry of d and x must be even (scale a Fraction input by twice the
    lcm of its denominators).  An active pair's slack is then even: it starts
    even, and its two coordinates drop by the same total, so halving it is
    exact; an odd one raises ArithmeticError instead of being floored.  The
    first round's step is negative iff x is not valid (a negative coordinate
    or a violated pair), which raises `MetricError`.
    """
    v = list(x)
    k = len(v)
    active = [True] * k
    left = k
    while left:
        delta = None
        freeze = []
        for t in range(k):
            if not active[t]:
                continue
            vt, row = v[t], d[t]
            best = vt  # the self pair: x_t may drop to 0 at most (u = t repeats it)
            for u in range(k):
                slack = vt + v[u] - row[u]
                if active[u]:
                    if slack & 1:
                        raise ArithmeticError(f"odd slack {slack} between active coordinates")
                    slack >>= 1
                if slack < best:
                    best = slack
            if delta is None or best < delta:
                delta = best
                freeze = [t]
            elif best == delta:
                freeze.append(t)
        if delta < 0:
            raise MetricError("projection requires a valid vector")
        for t in range(k):
            if active[t]:
                v[t] -= delta
        for t in freeze:
            active[t] = False
        left -= len(freeze)
    return v


def in_tight_span(m: TerminalMetric, x: Mapping[str, object]) -> bool:
    """True iff x is valid and every coordinate attains a tight pair.

    A zero coordinate counts as tight (the pair (t, t) with D(t, t) = 0).
    """
    d, (ix,), _ = to_lattice(m, [check_vector(m, x)])
    return int_in_span(d, ix)


def project(m: TerminalMetric, x: Mapping[str, object]) -> Vec:
    """Project a valid vector onto the tight span.

    All active coordinates decrease at a common rate; a coordinate freezes as
    soon as one of its pair inequalities (or x_t >= 0) becomes tight.  The
    result dominates no coordinate of x and is a fixpoint iff x was already in
    the span.  The map is non-expanding in the sup norm but is not a
    nearest-point projection.  Runs as `int_project` on twice the lcm of the
    denominators.
    """
    d, (ix,), scale = to_lattice(m, [check_vector(m, x)])
    p = int_project([[2 * a for a in row] for row in d], [2 * a for a in ix])
    return {t: Fraction(n, 2 * scale) for t, n in zip(m.terminals, p)}


def ts_distance(x: Mapping[str, object], y: Mapping[str, object]) -> Fraction:
    """Sup-norm distance between two points, the geodesic metric of the span."""
    if set(x) != set(y):
        raise MetricError("points live over different terminal sets")
    return max(abs(as_fraction(x[t]) - as_fraction(y[t])) for t in x)


class FractionTable(dict):
    """n -> Fraction(n, scale), built once per n so equal values share one object."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def __missing__(self, n: int) -> Fraction:
        value = self[n] = Fraction(n, self.scale)
        return value


class PointLattice:
    """A fixed list of exact points (coordinate tuples) on one integer lattice.

    `ipts[i]` is point i's coordinates as ints on the scale S, `points[i]` the
    same as Fractions (built on first read) and `frac[n]` is Fraction(n, S),
    so `frac[dist(i, j)]` equals `ts_distance` of points i and j.
    """

    def __init__(self, ipts: Iterable[Sequence[int]], S: int):
        self.S = S
        self.ipts = [tuple(p) for p in ipts]
        self.frac = FractionTable(S)
        self._dist: dict[tuple[int, int], int] = {}

    @classmethod
    def of(cls, points: Sequence[Sequence[Fraction]]) -> "PointLattice":
        """Fraction points on the lcm of their denominators."""
        return cls(*lattice_ints(points))

    @cached_property
    def points(self) -> list[tuple[Fraction, ...]]:
        return [tuple(map(self.frac.__getitem__, p)) for p in self.ipts]

    @staticmethod
    def sup_dist(p: Sequence[int], q: Sequence[int]) -> int:
        """Sup-norm distance of two int vectors (a span distance, scaled)."""
        return max(map(abs, map(sub, p, q)))

    def dist(self, i: int, j: int) -> int:
        """S-scaled span distance between points i and j, memoized."""
        key = (i, j)
        d = self._dist.get(key)
        if d is None:
            d = self._dist[key] = self.sup_dist(self.ipts[i], self.ipts[j])
        return d


@dataclass(frozen=True)
class Cell:
    """A maximal bounded face: its tight pairs, dimension, and incidences.

    `pairs` lists the terminal pairs whose equalities cut out the cell; a pair
    (t, t) stands for the constraint x_t = 0.  `dim` is the number of
    terminals minus the rank of the equality system.
    """
    pairs: tuple[tuple[str, str], ...]
    dim: int
    vertex_ids: tuple[int, ...]
    adjacent: tuple[int, ...]


@dataclass(frozen=True)
class CellComplex:
    """Cells, and vertices as ints on the constraint scale `constraints[1]`
    (`ivertices`) and as Fraction vectors built on first read (`vertices`)."""
    metric: TerminalMetric
    ivertices: tuple[tuple[int, ...], ...]
    cells: tuple[Cell, ...]

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        frac = FractionTable(self.constraints[1])
        ts = self.metric.terminals
        return tuple(dict(zip(ts, map(frac.__getitem__, v))) for v in self.ivertices)

    @cached_property
    def constraints(self) -> tuple[list[tuple[int, int, int]], int,
                                   dict[tuple[str, str], tuple[int, int, int]]]:
        """`_scaled_constraints` of the metric, once per complex, and its pairs.

        The third entry maps each terminal pair, in both orders, to its
        constraint (i, i, 0 for a pair (t, t)), as `cell_point` reads it.
        """
        cons, scale = _scaled_constraints(self.metric)
        ts = self.metric.terminals
        by_pair = {}
        for c in cons:
            by_pair[ts[c[0]], ts[c[1]]] = by_pair[ts[c[1]], ts[c[0]]] = c
        return cons, scale, by_pair

    def vertex_id(self, point: Mapping[str, object]) -> int | None:
        p = check_vector(self.metric, point)
        return next((i for i, v in enumerate(self.vertices) if v == p), None)

    def to_json_dict(self) -> dict:
        ts = self.metric.terminals
        return {
            "terminals": list(ts),
            "vertices": [[str(v[t]) for t in ts] for v in self.vertices],
            "cells": [
                {
                    "pairs": [[a, b] for a, b in c.pairs],
                    "dim": c.dim,
                    "vertices": list(c.vertex_ids),
                    "adjacent": list(c.adjacent),
                }
                for c in self.cells
            ],
        }


def max_cell_dimension(complex_: CellComplex) -> int:
    return max(c.dim for c in complex_.cells)


# -- exact enumeration ------------------------------------------------------
#
# Constraints are encoded as (i, j, rhs) with i <= j over terminal indices;
# i == j encodes x_i >= 0 (read as x_i + x_i >= 0).  To keep the inner loops in
# integer arithmetic the metric is scaled by 4 * lcm(denominators).  Every
# vertex of P = {x : x_i + x_j >= d_ij, x >= 0} of an integral metric is
# half-integral (its tight system is a graph's incidence system, and a
# signed walk only halves around an odd cycle), so at scale 4 * den the
# vertices are even integers, every slack between them is even, and a step of
# the edge walk, a slack over 1 or 2, is an integer.


def _scaled_constraints(m: TerminalMetric) -> tuple[list[tuple[int, int, int]], int]:
    k = len(m.terminals)
    den = lcm(*(x.denominator for row in m.matrix() for x in row), 1)
    scale = 4 * den
    cons = []
    for i in range(k):
        for j in range(i + 1, k):
            cons.append((i, j, int(m.matrix()[i][j] * scale)))
    for i in range(k):
        cons.append((i, i, 0))
    return cons, scale


def _tight_system(cons: Sequence[tuple[int, int, int]], k: int
                  ) -> tuple[list[int] | None, int, list[int]]:
    """Solve a tight system on k coords by a signed BFS of its pair graph.

    Along a spanning walk each coordinate is sigma * s + c for its component's
    parameter s.  A self constraint (i, i, r) reads x_i + x_i = r: it is a loop
    of the pair graph, so like any odd cycle it pins s, to an integer or the
    system is inconsistent over the integers.  Returns the unique solution
    (None if the system is singular, or inconsistent over the integers), the
    number of components whose s stays free, which is k minus the rank of a
    consistent system, and the signs: sigma on the coordinates of free
    components and 0 on pinned ones, so with one free component they span the
    null space of the system.  An inconsistent system returns (None, 0, zeros)
    at once.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for i, j, r in cons:
        adj[i].append((j, r))
        adj[j].append((i, r))
    sigma = [0] * k  # 0 marks an unvisited coordinate
    const = [0] * k
    values = [0] * k
    signs = [0] * k
    free = 0
    for root in range(k):
        if sigma[root]:
            continue
        sigma[root] = 1
        nodes = [root]
        s_val: int | None = None
        for u in nodes:  # grows while it is walked
            for w, r in adj[u]:
                if not sigma[w]:
                    sigma[w] = -sigma[u]
                    const[w] = r - const[u]
                    nodes.append(w)
                    continue
                ss = sigma[u] + sigma[w]
                rem = r - const[u] - const[w]
                if ss == 0:
                    if rem != 0:
                        return None, 0, [0] * k
                    continue
                cand, mod = divmod(rem, ss)
                if mod != 0 or (s_val is not None and s_val != cand):
                    return None, 0, [0] * k
                s_val = cand
        if s_val is None:
            free += 1
            for node in nodes:
                signs[node] = sigma[node]
            continue
        for node in nodes:
            values[node] = sigma[node] * s_val + const[node]
    return (None if free else values), free, signs


def _walk_vertices(cons: list[tuple[int, int, int]], k: int) -> set[tuple[int, ...]]:
    """All vertices of P = {x : x_i + x_j >= r for (i, j, r) in cons}.

    A walk over the bounded edges of P, as in pivoting vertex enumeration
    (Avis and Fukuda 1992).  It starts at the terminal rows, which are
    vertices.  At a vertex, every (k-1)-subset of its tight constraints with
    exactly one free component gives the edge directions +-signs; a direction
    is kept when no tight constraint decreases along it.  The ratio test over
    the slack constraints gives the step to the next vertex; a direction that
    no constraint stops is an unbounded ray and is skipped.  The bounded
    complex is contractible (Develin 2006), so its 1-skeleton is connected and
    the walk reaches every vertex.  A step that is not an integer, or a vertex
    that violates a constraint, raises ArithmeticError: cons is not on a
    lattice where the vertices are integral.
    """
    rows = [[0] * k for _ in range(k)]
    for i, j, r in cons:
        if i != j:
            rows[i][j] = rows[j][i] = r
    seen = {tuple(row) for row in rows}
    stack = list(seen)
    while stack:
        v = stack.pop()
        tight, slack = [], []
        for c in cons:
            (tight if v[c[0]] + v[c[1]] == c[2] else slack).append(c)
        directions = set()
        for sub in combinations(tight, k - 1):
            _, free, signs = _tight_system(sub, k)
            if free != 1:
                continue
            for e in (signs, [-s for s in signs]):
                if all(e[i] + e[j] >= 0 for i, j, _ in tight):
                    directions.add(tuple(e))
        for e in directions:
            step2 = None  # twice the step, an integer: rates are -1 or -2
            for i, j, r in slack:
                rate = e[i] + e[j]
                if rate < 0:
                    t2 = 2 * (v[i] + v[j] - r) // -rate
                    if step2 is None or t2 < step2:
                        step2 = t2
            if step2 is None:
                continue
            if step2 % 2:
                raise ArithmeticError(f"edge step {step2}/2 from {v} is not integral")
            w = tuple(a + step2 // 2 * b for a, b in zip(v, e))
            if any(w[i] + w[j] < r for i, j, r in cons):
                raise ArithmeticError(f"walked point {w} violates a constraint")
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def enumerate_complex(m: TerminalMetric) -> CellComplex:
    """The polyhedral cell complex of the tight span, exactly.

    Vertices come from an exact walk over the bounded edges of the
    polyhedron (see `_walk_vertices`); cells are the maximal bounded faces,
    found as intersections of vertex tight sets and grouped by their
    tight-pair sets, with dimensions from the rank of the system and
    adjacency between cells sharing a vertex.  Limited to six terminals to
    bound the cost of the face closure.
    """
    problems = validate_metric(m)
    if problems:
        raise MetricError("invalid metric: " + "; ".join(problems[:3]))
    k = len(m.terminals)
    if k > 6:
        raise UnsupportedSizeError("cell enumeration supports at most 6 terminals")
    cons, _ = _scaled_constraints(m)
    masks = [(1 << i) | (1 << j) for i, j, _ in cons]
    full = (1 << k) - 1
    verts = _walk_vertices(cons, k)

    vlist = sorted(verts)
    tight_sets = []
    for sol in vlist:
        tight_sets.append(frozenset(
            c for c, (i, j, r) in enumerate(cons) if sol[i] + sol[j] == r))

    # Faces are intersections of vertex tight sets, closed under intersection.
    closure: set[frozenset[int]] = set(tight_sets)
    frontier = list(closure)
    while frontier:
        fresh = []
        for a in frontier:
            for b in tight_sets:
                c = a & b
                if c not in closure:
                    closure.add(c)
                    fresh.append(c)
        frontier = fresh

    faces = []
    for a in closure:
        touched = 0
        for c in a:
            touched |= masks[c]
        if touched == full:  # bounded, hence part of the span
            faces.append(a)
    maximal = [a for a in faces if not any(b < a for b in faces)]

    def pair_names(cids: frozenset[int]) -> tuple[tuple[str, str], ...]:
        names = [(m.terminals[cons[c][0]], m.terminals[cons[c][1]]) for c in cids]
        return tuple(sorted(names))

    ordered = sorted(maximal, key=pair_names)
    members = []
    for a in ordered:
        members.append(tuple(i for i, tset in enumerate(tight_sets) if tset >= a))
    adjacency = []
    for i, mem in enumerate(members):
        mset = set(mem)
        adjacency.append(tuple(
            j for j, other in enumerate(members)
            if j != i and mset.intersection(other)))

    cells = [Cell(pairs=pair_names(a), dim=_tight_system([cons[c] for c in a], k)[1],
                  vertex_ids=mem, adjacent=adj)
             for a, mem, adj in zip(ordered, members, adjacency)]

    return CellComplex(metric=m, ivertices=tuple(vlist), cells=tuple(cells))


def cell_point(complex_: CellComplex, cell: Cell, pins: Mapping[int, int],
               scale: int) -> list[int] | None:
    """The unique point of `cell` with x_i = v for each pin (i, v), as ints.

    The pins and the point are on `scale`, a multiple of `constraints[1]`.
    Solves the cell's tight pairs plus x_i + x_i = 2v per pin in integers;
    None if the point is undetermined, inconsistent or not integral there,
    or breaks a constraint of the polyhedron and so lies outside the cell.
    """
    cons, base, by_pair = complex_.constraints
    f = scale // base
    system = [(i, j, r * f) for i, j, r in map(by_pair.__getitem__, cell.pairs)]
    system += [(i, i, 2 * v) for i, v in pins.items()]
    values = _tight_system(system, len(complex_.metric.terminals))[0]
    if values is None or any(values[i] + values[j] < r * f for i, j, r in cons):
        return None
    return values
