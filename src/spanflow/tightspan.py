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
coordinates take given values, on any multiple of the complex's `scale`.
:class:`PointLattice` holds a fixed set of span points as ints on one common
scale, for code that measures many distances between the same points.

Membership and projection run on ints too: :func:`to_lattice` checks a
pseudometric and points over its terminals and puts them on the lcm of their
denominators (:func:`on_scale` one value on a given scale), and
:func:`int_in_span` and :func:`int_project` work there; :func:`in_tight_span`
and :func:`project` are their Fraction forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

from .metric import (MetricError, TerminalMetric, Vec, _axiom_violations, as_fraction,
                     check_vector, validate_metric)


class UnsupportedSizeError(MetricError):
    """Raised when cell enumeration is asked for more than six terminals."""


def lattice_ints(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The rows as ints on S, the lcm of all their denominators, and S."""
    S = lcm(*{x.denominator for row in rows for x in row})
    return [[x.numerator * (S // x.denominator) for x in row] for row in rows], S


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


def to_lattice(m: TerminalMetric, points: Iterable[Mapping[str, object]]
               ) -> tuple[list[list[int]], list[list[int]], int]:
    """The metric and the points as ints on one scale S, and S.

    This is where a metric and its points cross into ints, so it checks
    both: m must be a pseudometric (the axioms of `validate_metric`, with
    distinct terminals at distance zero allowed), and every point is
    normalized by `check_vector`, so it must be over exactly m's terminals;
    else `MetricError`.  S is the lcm of the denominators of the metric and
    of every coordinate; each point becomes its S-scaled coordinates in
    terminal order.
    """
    ts = m.terminals
    rows = [list(check_vector(m, p).values()) for p in points]
    ints, scale = lattice_ints([*m.matrix(), *rows])
    d = ints[:len(ts)]
    if _axiom_violations(ts, d, positive=False):   # cheap on ints; the message shows Fractions
        problems = _axiom_violations(ts, m.matrix(), positive=False)
        raise MetricError("not a pseudometric: " + "; ".join(problems[:3]))
    return d, ints[len(ts):], scale


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
    d, (ix,), _ = to_lattice(m, [x])
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
    d, (ix,), scale = to_lattice(m, [x])
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
    so `frac[dist(i, j)]` equals `ts_distance` of points i and j; with n
    points, `pair_dist[i * n + j]` is the memo `dist(i, j)` reads.
    """

    def __init__(self, ipts: Iterable[Sequence[int]], S: int):
        self.S = S
        self.ipts = [tuple(p) for p in ipts]
        self.frac = FractionTable(S)
        self.pair_dist = _PairDistances(self.ipts)

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
        return self.pair_dist[i * self.pair_dist.n + j]

    def dists(self, ps: Sequence[int], qs: Sequence[int]) -> Iterable[int]:
        """`dist(ps[n], qs[n])` for each n, read with C-level `map`."""
        return map(self.pair_dist.__getitem__, map(add, map(self.pair_dist.n.__mul__, ps), qs))


class _PairDistances(dict):
    """i * n + j -> S-scaled distance of points i and j of n, computed on first read."""

    def __init__(self, ipts: list[tuple[int, ...]]):
        super().__init__()
        self.ipts, self.n = ipts, len(ipts)

    def __missing__(self, key: int) -> int:
        i, j = divmod(key, self.n)
        d = self[key] = PointLattice.sup_dist(self.ipts[i], self.ipts[j])
        return d


@dataclass(frozen=True)
class Cell:
    """A maximal bounded face: its tight pairs, dimension, and incidences.

    `pairs` lists the terminal pairs whose equalities cut out the cell; a pair
    (t, t) stands for the constraint x_t = 0.  `system` is the same pairs, in
    the same order, as constraints on the complex's `scale`.  `dim` is the
    number of terminals minus the rank of the equality system.
    """
    pairs: tuple[tuple[str, str], ...]
    dim: int
    vertex_ids: tuple[int, ...]
    adjacent: tuple[int, ...]
    system: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class CellComplex:
    """Cells, and vertices as ints on `scale` (`ivertices`) and as Fraction
    vectors built on first read (`vertices`).  `cons` is the metric's
    constraint system on `scale`, as `enumerate_complex` walked it."""
    metric: TerminalMetric
    ivertices: tuple[tuple[int, ...], ...]
    cells: tuple[Cell, ...]
    cons: tuple[tuple[int, int, int], ...]
    scale: int

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        frac = FractionTable(self.scale)
        ts = self.metric.terminals
        return tuple(dict(zip(ts, map(frac.__getitem__, v))) for v in self.ivertices)

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
    ints, den = lattice_ints(m.matrix())
    cons = [(i, j, 4 * ints[i][j]) for i in range(k) for j in range(i + 1, k)]
    return cons + [(i, i, 0) for i in range(k)], 4 * den


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
    the walk reaches every vertex.  A step that is not an integer raises
    ArithmeticError: cons is not on a lattice where the vertices are integral.
    The rows are feasible, and the exact ratio test keeps every step feasible.
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
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def enumerate_complex(m: TerminalMetric) -> CellComplex:
    """The polyhedral cell complex of the tight span, exactly.

    Vertices come from an exact walk over the bounded edges of the
    polyhedron (see `_walk_vertices`); cells are the maximal bounded faces,
    found as intersections of vertex tight sets, with dimensions from the
    rank of their systems and adjacency between cells sharing a vertex.  The
    complex keeps the walked constraint system and its scale.  Limited to
    six terminals to bound the cost of the face closure.
    """
    problems = validate_metric(m)
    if problems:
        raise MetricError("invalid metric: " + "; ".join(problems[:3]))
    k = len(m.terminals)
    if k > 6:
        raise UnsupportedSizeError("cell enumeration supports at most 6 terminals")
    cons, scale = _scaled_constraints(m)
    masks = [(1 << i) | (1 << j) for i, j, _ in cons]
    full = (1 << k) - 1
    verts = _walk_vertices(cons, k)

    vlist = sorted(verts)
    tight_sets = []
    for sol in vlist:
        tight_sets.append(frozenset(
            c for c, (i, j, r) in enumerate(cons) if sol[i] + sol[j] == r))

    def bounded(a: frozenset[int]) -> bool:
        touched = 0
        for c in a:
            touched |= masks[c]
        return touched == full

    # Bounded faces are the bounded intersections of vertex tight sets.  Each
    # partial intersection on the way to one contains it, so is bounded too,
    # and the closure keeps only bounded sets.  A vertex's set is bounded.
    faces: set[frozenset[int]] = set(tight_sets)
    frontier = list(faces)
    while frontier:
        fresh = []
        for a in frontier:
            for b in tight_sets:
                c = a & b
                if c not in faces and bounded(c):
                    faces.add(c)
                    fresh.append(c)
        frontier = fresh
    maximal = [a for a in faces if not any(b < a for b in faces)]

    # a cell's constraint ids in the order of their pair names; cells sorted by them
    names = [(m.terminals[i], m.terminals[j]) for i, j, _ in cons]
    ordered = sorted((sorted(a, key=names.__getitem__) for a in maximal),
                     key=lambda ids: [names[c] for c in ids])
    members = []
    for ids in ordered:
        members.append(tuple(i for i, tset in enumerate(tight_sets) if tset.issuperset(ids)))
    adjacency = []
    for i, mem in enumerate(members):
        mset = set(mem)
        adjacency.append(tuple(
            j for j, other in enumerate(members)
            if j != i and mset.intersection(other)))

    cells = []
    for ids, mem, adj in zip(ordered, members, adjacency):
        system = tuple(cons[c] for c in ids)
        cells.append(Cell(pairs=tuple(names[c] for c in ids), dim=_tight_system(system, k)[1],
                          vertex_ids=mem, adjacent=adj, system=system))
    return CellComplex(metric=m, ivertices=tuple(vlist), cells=tuple(cells),
                       cons=tuple(cons), scale=scale)


def cell_point(complex_: CellComplex, cell: Cell, pins: Mapping[int, int],
               scale: int) -> list[int] | None:
    """The unique point of `cell` with x_i = v for each pin (i, v), as ints.

    The pins and the point are on `scale`, a multiple of the complex's scale.
    Solves the cell's `system` plus x_i + x_i = 2v per pin in integers; None
    if the point is undetermined, inconsistent or not integral there, or
    breaks a constraint of the polyhedron and so lies outside the cell.
    """
    f = scale // complex_.scale
    system = [(i, j, r * f) for i, j, r in cell.system]
    system += [(i, i, 2 * v) for i, v in pins.items()]
    values = _tight_system(system, len(complex_.metric.terminals))[0]
    if values is None or any(values[i] + values[j] < r * f for i, j, r in complex_.cons):
        return None
    return values
