"""Randomized decomposition of tight spans with at most five terminals.

Projected vertices are grouped into a bounded number of clusters by threshold
cuts with random positions; cluster representatives are fixed span points and
the cluster semi-metric is the span distance between representatives.
Terminal distances are preserved exactly on every sample, and for the three
generic span shapes the expected distance between the clusters of any two
points equals (or is bounded by) their span distance.

Span models: a cyclic fan of five rectangles around a center (one threshold
per pendant and per shared corner segment); a banded plane with at most one
45-degree fold segment (the rectangle-plus-triangle and two-overlapping-
rectangles shapes and four-terminal rectangles; one entangled threshold
drives both cuts through the fold, each cell's grid anchors come from
`tightspan.cell_point`); trees (one threshold per segment).  A complex that
none fits is rejected with a `MetricError` that gives each model's reason.

A `Decomposer` takes the embedding's int points on their own scale and puts
them and its model's vertices, draws, cuts and representatives on one
multiple of it (`_build_model`); Fractions appear only in what it hands out:
template parameters, representatives and costs.
A draw is lo + U*width/2^53 for a 53-bit integer U, so every threshold test
("draw > s", or "draw >= s" across a fold) is the integer test U > t for a t
fixed at build time.  Complex vertex i is representative i; any other point
compiles once into a cut tree of such tests with interned representatives as
leaves (a planar anchor is lifted the first time a tree reads it).  A sample
draws the U's and walks the trees with integer compares; a run of samples
walks each tree into one column of leaf ids and prices each vertex's few
distinct leaves once (`sample_volumes`).  Means and standard errors come from
int moment sums (`moment_stats`), divided once.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat
from operator import mul
from typing import Hashable, Mapping, Sequence

from .metric import MetricError, TerminalMetric, Vec, as_fraction
from .graphs import Edge, EmbeddedGraph, GraphError, TerminalGraph, edge_distance_ints
from .tightspan import (CellComplex, FractionTable, PointLattice, UnsupportedSizeError,
                        cell_point, enumerate_complex, int_in_span, lattice_ints,
                        max_cell_dimension, on_scale, to_lattice, weighted_sum)

_SEED_MIX = 0x9E3779B97F4A7C15


@dataclass
class TSTemplate:
    """Classification of a tight-span complex with extracted parameters."""
    tag: str  # "type1" fan | "type2"/"type3" folded plane | "degenerate" tree, other plane
    params: dict[str, Fraction] = field(default_factory=dict)
    cycle: tuple[str, ...] | None = None


@dataclass
class Cluster:
    label: str
    vertices: list
    rep: Vec


@dataclass
class Solution:
    """A partition of graph vertices plus representative span points.

    A representative is a vector over exactly the metric's terminals; its
    coordinates may be anything `as_fraction` reads, strings included.
    """
    metric: TerminalMetric
    clusters: list[Cluster]
    by_vertex: dict[Hashable, int]

    def cluster_of(self, v) -> int:
        return self.by_vertex[v]

    @cached_property
    def lattice(self) -> PointLattice:
        """The cluster representatives on one lattice (point i is cluster i's rep),
        checked by `to_lattice`."""
        _, ipts, S = to_lattice(self.metric, [c.rep for c in self.clusters])
        return PointLattice(ipts, S)

    def delta(self, i: int, j: int) -> Fraction:
        lat = self.lattice
        return lat.frac[lat.dist(i, j)]

    def size(self) -> int:
        return len(self.clusters)

    def to_json_dict(self) -> dict:
        ts = self.metric.terminals
        return {
            "clusters": [
                {
                    "label": c.label,
                    "vertices": [str(v) for v in c.vertices],
                    "rep": {t: str(c.rep[t]) for t in ts},
                }
                for c in self.clusters
            ]
        }


@dataclass
class CostReport:
    vol: Fraction
    opt: Fraction
    ratio: Fraction

    def to_json_dict(self) -> dict:
        return {"vol": str(self.vol), "opt": str(self.opt), "ratio": str(self.ratio)}


# ---------------------------------------------------------------------------
# template metric builders (inverse of classify, used to derive instances)


def type1_metric(pendants: Mapping[str, object], sides: Mapping[tuple[str, str], object],
                 cycle: Sequence[str] = ("a", "b", "c", "d", "e")) -> TerminalMetric:
    """Metric whose span is a five-rectangle fan with the given parameters.

    `sides` is keyed by consecutive cycle pairs; all parameters must be
    positive for the shape to be non-degenerate.
    """
    cyc = list(cycle)
    k = len(cyc)
    if k != 5:
        raise MetricError("the fan template needs exactly five terminals")
    pend = {t: as_fraction(pendants[t]) for t in cyc}

    def side(t, u):
        if (t, u) in sides:
            return as_fraction(sides[(t, u)])
        return as_fraction(sides[(u, t)])

    pairs = {}
    for i, t in enumerate(cyc):
        nxt = cyc[(i + 1) % k]
        nxt2 = cyc[(i + 2) % k]
        prev = cyc[(i - 1) % k]
        pairs[(t, nxt)] = pend[t] + pend[nxt] + side(prev, t) + side(nxt, nxt2)
        pairs[(t, nxt2)] = (pend[t] + pend[nxt2] + side(prev, t) + side(t, nxt)
                            + side(nxt, nxt2) + side(nxt2, cyc[(i + 3) % k]))
    return TerminalMetric.from_pairs(pairs, terminals=cyc)


def type2_metric(width, height, off_x, off_y, fold, pendants: Mapping[str, object],
                 names: Sequence[str] = ("a", "b", "c", "d", "e")) -> TerminalMetric:
    """Metric whose span is a rectangle with an interior fold triangle.

    Corners a..d sit at (0,0), (W,0), (W,H), (0,H); the apex terminal e hangs
    off the fold, which runs diagonally across the square of side `fold`
    anchored at (off_x, off_y).  Requires 0 < off_x, off_x + fold < width and
    likewise in y.
    """
    a, b, c, d, e = names
    W, H, P, Q, h = map(as_fraction, (width, height, off_x, off_y, fold))
    if not (0 < P and 0 < Q and P + h < W and Q + h < H and h > 0):
        raise MetricError("fold square must lie strictly inside the rectangle")
    p = {t: as_fraction(pendants[t]) for t in names}
    pairs = {
        (a, b): p[a] + W + p[b],
        (b, c): p[b] + H + p[c],
        (c, d): p[c] + W + p[d],
        (a, d): p[a] + H + p[d],
        (a, c): p[a] + W + H + p[c],
        (b, d): p[b] + W + H + p[d],
        (a, e): p[a] + P + Q + h + p[e],
        (b, e): p[b] + (W - P) + Q + h + p[e],
        (c, e): p[c] + (W - P) + (H - Q) - h + p[e],
        (d, e): p[d] + P + (H - Q) + h + p[e],
    }
    return TerminalMetric.from_pairs(pairs, terminals=names)


def type3_metric(x_lo, x_hi, y_lo, y_hi, fold, pendants: Mapping[str, object],
                 names: Sequence[str] = ("a", "b", "c", "d", "e")) -> TerminalMetric:
    """Metric whose span is two rectangles overlapping along a corner fold.

    Band widths along x are (x_lo, fold, x_hi) and along y (y_lo, fold, y_hi);
    terminals sit at a=(X0,Y0), b=(X0,Y3), c=(X3,Y2), d=(X3,Y0), e=(X2,Y3).
    """
    a, b, c, d, e = names
    ax, ax2, ay, ay2, h = map(as_fraction, (x_lo, x_hi, y_lo, y_hi, fold))
    if min(ax, ax2, ay, ay2, h) <= 0:
        raise MetricError("all band widths must be positive")
    p = {t: as_fraction(pendants[t]) for t in names}
    X30 = ax + h + ax2
    Y30 = ay + h + ay2
    pairs = {
        (a, b): p[a] + Y30 + p[b],
        (a, d): p[a] + X30 + p[d],
        (a, c): p[a] + X30 + (ay + h) + p[c],
        (a, e): p[a] + (ax + h) + Y30 + p[e],
        (b, d): p[b] + X30 + Y30 + p[d],
        (b, e): p[b] + ax + h + p[e],
        (b, c): p[b] + X30 + ay2 + p[c],
        (c, d): p[c] + ay + h + p[d],
        (d, e): p[d] + ax2 + ay + h + ay2 + p[e],
        (c, e): p[c] + (h + ax2) + h + ay2 + p[e],
    }
    return TerminalMetric.from_pairs(pairs, terminals=names)


# ---------------------------------------------------------------------------
# models

_DRAW_BITS = 53


class _Cut:
    """Cut-tree node: `above` if the integer U of draw `d` exceeds `t`, else `below`.

    A leaf is an interned representative id (a value of the model's
    `rep_ids`), or None for a banded region without an anchor, which raises only
    when a sample reaches it.
    """
    __slots__ = ("d", "t", "below", "above")

    def __init__(self, d: int, t: int, below, above):
        self.d, self.t, self.below, self.above = d, t, below, above


def _threshold(s: int, lo: int, w: int, closed: bool = False) -> int:
    """The int t with U > t iff lo + U*w/2^53 > s (>= s if closed), for w > 0.

    s, lo and w are ints on one scale, so t does not depend on it.  With
    a = (s - lo)*2^53: U > a/w iff U > floor(a/w), and U >= a/w iff
    U > ceil(a/w) - 1 = floor((a - 1)/w).
    """
    a = (s - lo) << _DRAW_BITS
    return (a - 1) // w if closed else a // w


def _in_cell(system, p) -> bool:
    """Exact containment: p lies in the cell iff its tight pairs (`system`) hold."""
    return all(p[i] + p[j] == r for i, j, r in system)


_dist = PointLattice.sup_dist


class _ModelBase:
    """Shared localization plumbing; subclasses implement _localize_inner.
    Vertices `V`, terminal rows, localized points, draws and representative
    keys are ints on `scale` (see `_build_model`)."""

    def __init__(self, complex_: CellComplex, scale: int):
        self.complex = complex_
        self.metric = complex_.metric
        self.scale = scale
        f = scale // complex_.scale
        self.V = [tuple(x * f for x in v) for v in complex_.ivertices]
        self.vid = {v: i for i, v in enumerate(self.V)}
        self.rows = {t: tuple(on_scale(x, scale) for x in row)
                     for t, row in zip(self.metric.terminals, self.metric.matrix())}
        # terminal rows are complex vertices: `_walk_vertices` starts at them
        self.term_vid = {t: self.vid[r] for t, r in self.rows.items()}
        # each cell's tight pairs as constraints on the scale
        self.system = {c: [(i, j, r * f) for i, j, r in c.system] for c in complex_.cells}
        self.two = [c for c in complex_.cells if c.dim == 2]
        self.trees = [c for c in complex_.cells if c.dim == 1]
        # representative tuple -> id, in id order; complex vertex i is id i
        self.rep_ids: dict[tuple, int] = dict(self.vid)
        # (lo, width) of each uniform draw lo + U*width/2^53, in RNG order
        self.draw_spec: list[tuple[int, int]] = []

    def _add_draw(self, lo: int, w: int) -> int:
        self.draw_spec.append((lo, w))
        return len(self.draw_spec) - 1

    def _cut(self, d: int, s: int, below, above, closed: bool = False) -> _Cut:
        """Node taking `above` iff draw d > s (>= s if closed)."""
        lo, w = self.draw_spec[d]
        return _Cut(d, _threshold(s, lo, w, closed), below, above)

    def _add_tree_draws(self):
        """One draw per 1-cell, measured from its lower vertex id."""
        V = self.V
        self.segments = []
        for cell in self.trees:
            i, j = sorted(cell.vertex_ids)
            d = self._add_draw(0, _dist(V[i], V[j]))
            self.segments.append((d, self.system[cell], i, j))

    def _segment_node(self, p):
        """Cut of a non-vertex point on a 1-cell between its ends; `MetricError` if on none."""
        V = self.V
        for d, system, i, j in self.segments:
            if _in_cell(system, p):
                return self._cut(d, _dist(p, V[i]), j, i)
        raise MetricError("point not on the span")

    def localize(self, p: tuple):
        """The cut tree of a span point (ints on the scale): a representative id or a `_Cut`;
        complex vertex i is id i, and only points off the vertices reach the model."""
        vid = self.vid.get(p)
        return self._localize_inner(p) if vid is None else vid


class _TreeModel(_ModelBase):
    """A complex of dimension at most 1: one threshold per 1-cell."""

    def __init__(self, complex_, scale):
        super().__init__(complex_, scale)
        self._add_tree_draws()

    # vertices are caught by localize, so p lies inside a 1-cell or off the span
    _localize_inner = _ModelBase._segment_node


class _FanModel(_ModelBase):
    """Five rectangles around a common center, five pendants."""

    def __init__(self, complex_, scale):
        super().__init__(complex_, scale)
        m, V = self.metric, self.V
        two = self.two
        if len(two) != 5:
            raise MetricError("not a fan complex")
        if any(len(c.vertex_ids) != 4 for c in two):
            raise MetricError("fan rectangles must have four corners")
        common = set(two[0].vertex_ids)
        for c in two[1:]:
            common &= set(c.vertex_ids)
        if len(common) != 1:
            raise MetricError("fan rectangles must share one center")
        self.o_id = common.pop()
        # pendants: terminal vertex <-> prime corner of exactly one rectangle;
        # a terminal sitting directly on its rectangle has a zero pendant
        self.prime = {}
        self.pend_len = {}
        for c in self.trees:
            ids = set(c.vertex_ids)
            terms = [t for t, vid in self.term_vid.items() if vid in ids]
            if len(terms) != 1:
                raise MetricError("fan pendant must end at one terminal")
            t = terms[0]
            other = (ids - {self.term_vid[t]}).pop()
            self.prime[t] = other
            self.pend_len[t] = _dist(V[other], self.rows[t])
        for t in m.terminals:
            if t not in self.prime:
                self.prime[t] = self.term_vid[t]
                self.pend_len[t] = 0
        if len(self.prime) != 5:
            raise MetricError("each terminal needs its own pendant")
        rect_of = {}
        for t, pv in self.prime.items():
            owners = [i for i, c in enumerate(two) if pv in c.vertex_ids]
            if len(owners) != 1:
                raise MetricError("prime corner must belong to one rectangle")
            rect_of[t] = owners[0]
        if len(set(rect_of.values())) != 5:
            raise MetricError("rectangles and terminals must pair up")
        # cyclic order via shared non-center corners
        shared = {}
        for t, u in combinations(m.terminals, 2):
            inter = (set(two[rect_of[t]].vertex_ids) & set(two[rect_of[u]].vertex_ids)
                     - {self.o_id})
            if len(inter) == 1:
                shared[frozenset((t, u))] = inter.pop()
            elif len(inter) > 1:
                raise MetricError("fan rectangles overlap too much")
        if len(shared) != 5 or any(
                sum(1 for k in shared if t in k) != 2 for t in m.terminals):
            raise MetricError("fan rectangles must form a single cycle")
        start = min(m.terminals)
        cyc = [start]
        while len(cyc) < 5:
            t = cyc[-1]
            cyc.append(min(u for k in shared if t in k for u in k if u != t and u not in cyc))
        self.cycle = tuple(cyc)
        self.corner = shared  # frozenset pair -> vertex id
        self.side_len = {k: _dist(V[self.o_id], V[v]) for k, v in shared.items()}
        self.rect_systems = {t: self.system[two[rect_of[t]]] for t in m.terminals}
        # round trip: the parameters must reproduce the metric exactly
        check = type1_metric(self.pend_len,
                             {tuple(sorted(k)): v for k, v in self.side_len.items()},
                             cycle=self.cycle)
        for t, u in combinations(m.terminals, 2):
            if check.d(t, u) != self.rows[t][m.index(u)]:
                raise MetricError("fan parameters do not reproduce the metric")

        # zero-width pendant draws keep the RNG order but no point reads them
        self.pend_draw = {t: self._add_draw(0, self.pend_len[t]) for t in sorted(m.terminals)}
        self.side_draw = {k: self._add_draw(0, self.side_len[k])
                          for k in sorted(self.corner, key=sorted)}
        i = self.cycle.index
        self.next_of = {t: self.cycle[(i(t) + 1) % 5] for t in self.cycle}
        self.prev_of = {t: self.cycle[(i(t) - 1) % 5] for t in self.cycle}

    def _localize_inner(self, p):
        V = self.V
        for t in sorted(self.metric.terminals):
            # pendant test: p lies between the terminal and its prime corner
            d_t = _dist(p, self.rows[t])
            if d_t + _dist(p, V[self.prime[t]]) == self.pend_len[t]:
                return self._cut(self.pend_draw[t], d_t, self.prime[t], self.term_vid[t])
        for t in self.cycle:
            if not _in_cell(self.rect_systems[t], p):
                continue
            nxt, prv = self.next_of[t], self.prev_of[t]
            e_next = frozenset((t, nxt))
            e_prev = frozenset((prv, t))
            dp = _dist(p, V[self.prime[t]])
            u1 = (dp + _dist(p, V[self.corner[e_next]]) - self.side_len[e_prev]) >> 1
            u2 = (dp + _dist(p, V[self.corner[e_prev]]) - self.side_len[e_next]) >> 1
            # with r1, r2 the draws of the next and the previous side, the
            # corner is prime if u1 < r1 and u2 < r2, the next side's if only
            # u1 < r1, the previous side's if only u2 < r2, else the center
            d1, d2 = self.side_draw[e_next], self.side_draw[e_prev]
            return self._cut(d1, u1, self._cut(d2, u2, self.o_id, self.corner[e_prev]),
                             self._cut(d2, u2, self.corner[e_next], self.prime[t]))
        raise MetricError("point not on the fan span")


class _PlanarModel(_ModelBase):
    """Banded plane with at most one 45-degree fold; covers types 2 and 3.

    Terminals t1, t2 chart every 2-cell (`_find_chart`), and a point's planar
    position is ((x_{t1} + x_{t2})/2, (x_{t1} - x_{t2})/2).  The vertices'
    positions give the band grid; a cell's anchor over a grid point is the
    cell's point at that position (`tightspan.cell_point`).
    """

    def __init__(self, complex_, scale):
        super().__init__(complex_, scale)
        cx = complex_
        if not self.two:
            raise MetricError("no 2-cells for the planar model")
        if any(c.dim > 2 for c in cx.cells):
            raise MetricError("a cell of dimension above 2")
        chart = _find_chart(cx, self.two)
        if chart is None:
            raise MetricError("no global planar chart")
        self.i1, self.i2 = map(self.metric.index, chart)
        self.plan = [self._position(v) for v in self.V]
        # fold: a vertex pair shared by at least three 2-cells
        counts: dict[tuple[int, int], int] = {}
        for c in self.two:
            for i, j in combinations(sorted(c.vertex_ids), 2):
                counts[(i, j)] = counts.get((i, j), 0) + 1
        folds = [pair for pair, n in counts.items() if n >= 3]
        if len(folds) > 1:
            raise MetricError("more than one fold segment")
        self.fold = folds[0] if folds else None

        on2 = sorted({vid for c in self.two for vid in c.vertex_ids})
        self.xs = sorted({self.plan[v][0] for v in on2})
        self.ys = sorted({self.plan[v][1] for v in on2})
        self.fold_bands = None
        if self.fold is not None:
            (xa, ya), (xb, yb) = self.plan[self.fold[0]], self.plan[self.fold[1]]
            if abs(xb - xa) != abs(yb - ya) or xa == xb:
                raise MetricError("fold is not diagonal")
            xlo, xhi = min(xa, xb), max(xa, xb)
            ylo, yhi = min(ya, yb), max(ya, yb)
            bx = self.xs.index(xlo)
            by = self.ys.index(ylo)
            if self.xs[bx + 1] != xhi or self.ys[by + 1] != yhi:
                raise MetricError("fold must span single bands")
            slope = 1 if (xb - xa) == (yb - ya) else -1
            self.fold_bands = (bx, by, slope, xhi - xlo)
        # per axis, each band's draw; the fold band reads the fold draw instead
        self.band_draws: tuple[list, list] = ([], [])
        for axis, grid in enumerate((self.xs, self.ys)):
            for i in range(len(grid) - 1):
                fold = self.fold_bands and i == self.fold_bands[axis]
                self.band_draws[axis].append(
                    None if fold else self._add_draw(grid[i], grid[i + 1] - grid[i]))
        if self.fold_bands:
            self.fold_draw = self._add_draw(0, self.fold_bands[3])
        self._add_tree_draws()
        # (cell, gx, gy) -> rep id of the anchor, filled as cut trees read it
        self.lift: dict[tuple[int, int, int], int | None] = {}

    def _position(self, p) -> tuple[int, int]:
        """The planar position of a point on the chart."""
        a, b = p[self.i1], p[self.i2]
        return (a + b) >> 1, (a - b) >> 1

    def _lift(self, ci, gx, gy):
        """Rep id of cell ci's point at grid anchor (gx, gy), None off the cell; memoized."""
        key = (ci, gx, gy)
        if key not in self.lift:
            x, y = self.xs[gx], self.ys[gy]
            p = cell_point(self.complex, self.two[ci], {self.i1: x + y, self.i2: x - y}, self.scale)
            ids = self.rep_ids
            self.lift[key] = None if p is None else ids.setdefault(tuple(p), len(ids))
        return self.lift[key]

    def _localize_inner(self, p):
        cells = tuple(ci for ci, c in enumerate(self.two) if _in_cell(self.system[c], p))
        if cells:
            return self._cell_node(*self._position(p), cells)
        return self._segment_node(p)

    def _cell_node(self, x, y, cells):
        """Cut tree of planar (x, y) in `cells`: the first cell's lift over (gx, gy)."""
        def anchor(gx, gy):
            return next((rep for ci in cells
                         if (rep := self._lift(ci, gx, gy)) is not None), None)

        def column(gx):
            return self._axis_node(1, y, lambda gy: anchor(gx, gy))
        return self._axis_node(0, x, column)

    def _axis_node(self, axis, v, leaf):
        """Node choosing leaf(g), g the number of cuts <= v along one axis.

        Band j's cut lies between grid[j] and grid[j+1], so v in band
        [grid[i], grid[i+1]) counts every cut of a lower band, none of a
        higher one, and its own band's cut iff that cut is <= v.  A v on the
        grid line itself takes leaf(i): its band's cut equals v only on a
        draw of U = 0, and leaf(i + 1) may have no anchor there.
        """
        grid = (self.xs, self.ys)[axis]
        i = bisect_right(grid, v) - 1
        if i == len(grid) - 1 or v == grid[i]:
            return leaf(i)
        d = self.band_draws[axis][i]
        if d is not None:  # cut = draw
            return self._cut(d, v, leaf(i + 1), leaf(i))
        if axis == 1 and self.fold_bands[2] == -1:  # cut = grid[i+1] - fold draw
            return self._cut(self.fold_draw, grid[i + 1] - v, leaf(i), leaf(i + 1),
                             closed=True)
        return self._cut(self.fold_draw, v - grid[i], leaf(i + 1), leaf(i))  # grid[i] + draw


def _find_chart(cx: CellComplex, two) -> tuple[str, str] | None:
    """The first terminal pair whose coordinates chart every 2-cell in `two`.

    A 2-cell's tight pairs split the coordinates into two free groups, each
    coordinate +-s + c in one group's parameter s, or fixed.  Pinning x_{t1}
    and x_{t2} at a vertex determines a point of the cell iff t1 and t2 lie in
    different groups; the span distance on the cell is then
    max(|d x_{t1}|, |d x_{t2}|).  Runs on the complex's `scale`.
    """
    ts = cx.metric.terminals
    firsts = [(c, cx.ivertices[c.vertex_ids[0]]) for c in two]
    for i1, i2 in combinations(range(len(ts)), 2):
        if all(cell_point(cx, c, {i1: v[i1], i2: v[i2]}, cx.scale) is not None
               for c, v in firsts):
            return (ts[i1], ts[i2])
    return None


def _build_model(cx: CellComplex, lattice: int):
    """The tree model for a complex of dimension <= 1, else the fan or the plane,
    on 4 * lcm(lattice, the complex's scale): there the vertices, terminal rows
    and every point integral on `lattice` are multiples of 4, so each sum or
    difference of them that a model halves is even."""
    scale = 4 * math.lcm(lattice, cx.scale)
    if max_cell_dimension(cx) <= 1:
        return _TreeModel(cx, scale)
    reasons = []
    for name, model in (("fan", _FanModel), ("planar", _PlanarModel)):
        try:
            return model(cx, scale)
        except MetricError as exc:
            reasons.append(f"{name}: {exc}")
    raise MetricError("no span model fits the complex (" + "; ".join(reasons) + ")")


def classify(cx: CellComplex) -> TSTemplate:
    """Classify a <=5-terminal span complex and extract its parameters.

    Raises `MetricError` with each model's reason if no span model fits.
    """
    if len(cx.metric.terminals) > 5:
        raise UnsupportedSizeError("classification supports at most 5 terminals")
    return _template_of(_build_model(cx, 1))


def _template_of(model) -> TSTemplate:
    """The template tag and parameters of an already built span model."""
    frac = FractionTable(model.scale)
    if isinstance(model, _FanModel):
        params = {f"pendant_{t}": frac[model.pend_len[t]] for t in model.metric.terminals}
        params.update((f"side_{'_'.join(sorted(k))}", frac[v]) for k, v in model.side_len.items())
        return TSTemplate(tag="type1", params=params, cycle=model.cycle)
    if isinstance(model, _PlanarModel) and model.fold is not None:
        sizes = sorted(len(c.vertex_ids) for c in model.two)
        tag = "type2" if sizes == [3, 4, 4, 5, 5] else (
            "type3" if sizes == [4, 4, 4, 4, 5] else "degenerate")
        params = {f"{axis}_band_{i}": frac[hi - lo]
                  for axis, grid in zip("xy", (model.xs, model.ys))
                  for i, (lo, hi) in enumerate(zip(grid, grid[1:]))}
        params["fold"] = frac[model.fold_bands[3]]
        for t in model.metric.terminals:
            params[f"pendant_{t}"] = frac[_attach_point(model, t)]
        return TSTemplate(tag=tag, params=params)
    return TSTemplate(tag="degenerate")


def _attach_point(model: _PlanarModel, t: str) -> int:
    """Pendant length of a terminal (0 on a 2-cell)."""
    vid = model.term_vid[t]
    # the draw width of the 1-cell ending at the terminal is its length
    return next((model.draw_spec[d][1] for d, _, i, j in model.segments if vid in (i, j)), 0)


class Decomposer:
    """Reusable sampler for one embedded graph (localization is precomputed);
    `ipoints` maps each vertex to its point as ints on the model's scale.
    The embedding's scale must carry its metric (else `MetricError`)."""

    def __init__(self, embedded: EmbeddedGraph):
        g, m, S = embedded.graph, embedded.metric, embedded.scale
        if len(m.terminals) > 5:
            raise UnsupportedSizeError("decomposition supports at most 5 terminals")
        d = [tuple(on_scale(x, S) for x in row) for row in m.matrix()]
        at = embedded.ipoints
        for t, row in zip(m.terminals, d):
            if at[g.terminals[t]] != row:
                raise MetricError(f"terminal {t} is not embedded at its own row")
        for v, x in at.items():
            if not int_in_span(d, x):
                raise MetricError(f"embedded point of vertex {v} is outside the span")
        self.embedded = embedded
        self.complex = enumerate_complex(m)
        self.model = _build_model(self.complex, S)
        f = self.model.scale // S
        self.ipoints = {v: tuple(x * f for x in p) for v, p in at.items()}
        self.template = _template_of(self.model)
        self.nodes = {v: self.model.localize(p) for v, p in self.ipoints.items()}
        # localizing interned every leaf; rep id i is lattice point i
        self.lattice = PointLattice(self.model.rep_ids, self.model.scale)
        self._static_ids = {v: n for v, n in self.nodes.items() if type(n) is int}
        self._dynamic = {v: n for v, n in self.nodes.items() if type(n) is not int}

    def assignment(self, seed: int) -> dict[Hashable, tuple]:
        """Each vertex's representative coordinate tuple for one sample."""
        reps = self.lattice.points
        return {v: reps[i] for v, i in self.assignment_ids(seed).items()}

    def assignment_ids(self, seed: int) -> dict[Hashable, int]:
        """Each vertex's interned representative id (its `lattice` point) for one sample."""
        out = dict(self._static_ids)
        out.update(zip(self._dynamic, self._leaf_rows([seed])[0]))
        return out

    def _leaf_rows(self, seeds: Sequence[int]) -> list[list[int]]:
        """One row per seed: the leaf ids of the dynamic vertices, in `_dynamic` order.

        Sample i draws its U's from `random.Random(seeds[i])` in `draw_spec`
        order and walks every cut tree once.
        """
        n = len(self.model.draw_spec)
        rows = []
        for rng in map(random.Random, seeds):
            us = [rng.getrandbits(_DRAW_BITS) for _ in range(n)]
            row = []
            for node in self._dynamic.values():
                while node.__class__ is _Cut:
                    node = node.above if us[node.d] > node.t else node.below
                row.append(node)
            if None in row:
                raise MetricError("no anchor for a banded region (degenerate shape)")
            rows.append(row)
        return rows

    def solution(self, seed: int) -> Solution:
        m = self.embedded.metric
        assign = self.assignment_ids(seed)
        groups: dict[int, list] = {}
        for v in self.embedded.graph.vertices:
            groups.setdefault(assign[v], []).append(v)
        # rep id i is complex vertex i, so a terminal's rep id is its vertex id
        term_of = {vid: t for t, vid in self.model.term_vid.items()}
        clusters, by_vertex = [], {}
        steiner = 0
        ipts, reps = self.lattice.ipts, self.lattice.points
        for rid in sorted(groups, key=lambda i: (i not in term_of, ipts[i])):
            if rid in term_of:
                label = f"t:{term_of[rid]}"
            else:
                label = f"s{steiner}"
                steiner += 1
            idx = len(clusters)
            rep = dict(zip(m.terminals, reps[rid]))
            clusters.append(Cluster(label=label, vertices=sorted(groups[rid], key=str),
                                    rep=rep))
            for v in groups[rid]:
                by_vertex[v] = idx
        return Solution(metric=m, clusters=clusters, by_vertex=by_vertex)


def opt_volume(embedded: EmbeddedGraph) -> Fraction:
    """Cost of the identity: sum of capacity times endpoint shortest-path distance.

    The edges read the embedding's distance maps where they can; see
    `graphs.edge_distance_ints`.
    """
    g = embedded.graph
    return weighted_sum([e.capacity for e in g.edges],
                        edge_distance_ints(g, embedded.distances), g.length_table().scale)


def _covering(g: TerminalGraph, sol: Solution) -> tuple[PointLattice, dict[Hashable, int]]:
    """The solution's lattice and vertex map, once it is checked to cover g."""
    missing = [v for v in g.vertices if v not in sol.by_vertex]
    if missing:
        raise GraphError(f"solution does not cover vertices {missing[:3]}")
    return sol.lattice, sol.by_vertex


def cost(embedded: EmbeddedGraph, sol: Solution) -> CostReport:
    """The solution's volume (int capacities times int distances on its lattice) and opt."""
    g = embedded.graph
    lat, by = _covering(g, sol)
    vol = weighted_sum([e.capacity for e in g.edges],
                       lat.dists([by[e.u] for e in g.edges], [by[e.v] for e in g.edges]), lat.S)
    opt = opt_volume(embedded)
    return CostReport(vol=vol, opt=opt, ratio=vol / opt if opt else Fraction(1))


def sample_seed(master_seed: int, i: int) -> int:
    """Seed of the i-th sample; depends only on the master seed and the index."""
    return (master_seed * _SEED_MIX + i) % (1 << 64)


@dataclass
class Samples:
    """The samples `sample_seed(master_seed, i)`, in order of i, as ints.

    `ivols[i]` is sample i's exact volume times `scale`.  With `per_edge`,
    `delta_sums[e]` and `delta_squares[e]` are the sums over the samples of
    edge e's span distance delta between its endpoints' representatives and of
    delta^2, as ints on the representatives' lattice (`Decomposer.lattice.S`);
    an edge with one static end has them from the leaf counts of its dynamic
    end, so `sample_volumes` does no per-sample work for it.
    """
    ivols: list[int]
    scale: int
    delta_sums: list[int] | None = None
    delta_squares: list[int] | None = None

    @property
    def vols(self) -> list[Fraction]:
        """Each sample's exact volume."""
        return [Fraction(v, self.scale) for v in self.ivols]

    def volume_stats(self) -> tuple[Fraction, float]:
        """Exact mean and standard error of the volumes (`moment_stats`)."""
        vs = self.ivols
        return moment_stats(sum(vs), sum(map(mul, vs, vs)), len(vs), self.scale)


def sample_volumes(dec: Decomposer, n_samples: int, master_seed: int,
                   per_edge: bool = False) -> Samples:
    """Draw `n_samples` seeded decompositions and their exact cut volumes.

    A volume sums int capacity (on the capacities' common denominator) times
    int delta over the edges, regrouped so that the work scales with samples
    times dynamic vertices, not with samples times edges.  The walks of
    `Decomposer._leaf_rows`, transposed, give each dynamic vertex one column
    of leaf ids over the samples.  Edges between static vertices add one
    constant; a dynamic vertex's edges to static ones are priced once per
    distinct leaf of its column and added down it; only edges between two
    dynamic vertices are read per sample.  With `per_edge`, an edge with a
    static end takes its sums from its dynamic end's leaf counts.  Raises
    `MetricError` for fewer than one sample.
    """
    if n_samples < 1:
        raise MetricError("need at least one sample")
    edges = dec.embedded.graph.edges
    lat = dec.lattice
    (caps,), scale = lattice_ints([[e.capacity for e in edges]])
    static = dec._static_ids
    seeds = [sample_seed(master_seed, i) for i in range(n_samples)]
    cols = dict(zip(dec._dynamic, zip(*dec._leaf_rows(seeds))))   # vertex -> leaf column
    s1 = s2 = None
    if per_edge:
        s1, s2 = [0] * len(edges), [0] * len(edges)
    const = 0
    pull: dict[Hashable, dict[int, int]] = defaultdict(dict)   # static id -> capacity
    fixed, free = [], []   # (k, static id, dynamic end), (k, capacity, u, v)
    for k, ((u, v, _, _), c) in enumerate(zip(edges, caps)):
        a, b = static.get(u), static.get(v)
        if a is not None and b is not None:
            d = lat.dist(a, b)
            const += c * d
            if per_edge:
                s1[k], s2[k] = n_samples * d, n_samples * d * d
        elif a is None and b is None:
            free.append((k, c, u, v))
        else:
            a, w = (a, v) if b is None else (b, u)
            p = pull[w]
            p[a] = p.get(a, 0) + c
            if per_edge:
                fixed.append((k, a, w))
    parts = []   # each dynamic vertex's and free edge's share of every sample's volume
    moments = {}   # (dynamic vertex, static id) -> (sum of delta, sum of delta^2)
    for w, p in pull.items():
        col, ids = cols[w], list(p)
        leaves = list(set(col))
        at = [list(lat.dists(ids, repeat(leaf))) for leaf in leaves]   # at[j][i]: ids[i] to leaf j
        table = dict(zip(leaves, [sum(map(mul, p.values(), ds)) for ds in at]))
        parts.append(map(table.__getitem__, col))
        if per_edge:
            ns = list(map(col.count, leaves))
            for a, ds in zip(ids, zip(*at)):
                moments[w, a] = sum(map(mul, ns, ds)), sum(map(mul, ns, map(mul, ds, ds)))
    for k, c, u, v in free:
        ds = list(lat.dists(cols[u], cols[v]))
        parts.append(map(c.__mul__, ds))
        if per_edge:
            s1[k], s2[k] = sum(ds), sum(map(mul, ds, ds))
    for k, a, w in fixed:
        s1[k], s2[k] = moments[w, a]
    ivols = list(map(sum, zip(repeat(const, n_samples), *parts)))
    return Samples(ivols=ivols, scale=scale * lat.S, delta_sums=s1, delta_squares=s2)


def _sqrt_float(q: Fraction) -> float:
    """The square root of q >= 0, correctly rounded to a float."""
    a, b = q.numerator, q.denominator
    if a == 0:
        return 0.0
    # scale by 4^k so the integer root carries at least 62 bits; a sticky
    # low bit then marks an inexact root, and one int division rounds it
    k = max(0, 62 - (a.bit_length() - b.bit_length()) // 2)
    n = (a << 2 * k) // b
    r = math.isqrt(n)
    if r * r * b != a << 2 * k:
        r, k = 2 * r + 1, k + 1
    return r / (1 << k)


def moment_stats(s1: int, s2: int, n: int, scale: int) -> tuple[Fraction, float]:
    """Exact mean and standard error of n values x_i/scale from s1 = sum x_i
    and s2 = sum x_i^2, the x_i ints.

    The mean is s1/(n scale).  The standard error is sqrt(sum (x - mean)^2 /
    (n (n - 1))) = sqrt((n s2 - s1^2) / (n^2 (n - 1) scale^2)), computed
    exactly and rounded once; it is 0.0 for fewer than two observations.
    """
    mean = Fraction(s1, n * scale)
    if n < 2:
        return mean, 0.0
    return mean, _sqrt_float(Fraction(n * s2 - s1 * s1, n * n * (n - 1) * scale * scale))


@dataclass
class EdgeStat:
    edge: Edge
    mean_delta: Fraction
    stderr: float
    embed_dist: Fraction


@dataclass
class ExpectedCost:
    mean_vol: Fraction
    stderr: float
    opt: Fraction
    samples: int
    per_edge: list[EdgeStat] | None = None


def expected_cost(embedded: EmbeddedGraph, n_samples: int, master_seed: int,
                  per_edge: bool = False) -> ExpectedCost:
    """Monte Carlo mean (exact) and standard error of the solution cost.

    Per-sample seeds derive deterministically from `master_seed` by index, so
    the result does not depend on evaluation order.  With `per_edge`, each
    edge's mean span distance between its endpoints' representatives and
    its standard error come from that edge's int moment sums in `Samples`,
    next to the distance of its embedded endpoints.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    dec = Decomposer(embedded)
    run = sample_volumes(dec, n_samples, master_seed, per_edge=per_edge)
    mean, stderr = run.volume_stats()
    stats = None
    if per_edge:
        at, lat = dec.ipoints, dec.lattice
        stats = [EdgeStat(e, *moment_stats(s1, s2, n_samples, lat.S),
                          embed_dist=lat.frac[_dist(at[e.u], at[e.v])])
                 for e, s1, s2 in zip(embedded.graph.edges, run.delta_sums, run.delta_squares)]
    return ExpectedCost(mean_vol=mean, stderr=stderr,
                        opt=opt_volume(embedded),
                        samples=n_samples, per_edge=stats)


def contract(g: TerminalGraph, sol: Solution) -> TerminalGraph:
    """Contract each cluster to a supernode, keeping parallel edges.

    Self-loops are dropped; contracted edges keep their capacity and take the
    cluster semi-metric as length, so dual evaluations on the sparsifier see
    the solution's distances.
    """
    labels = [c.label for c in sol.clusters]
    lat, by = _covering(g, sol)
    kept = [(by[e.u], by[e.v], e.capacity) for e in g.edges if by[e.u] != by[e.v]]
    lengths = map(lat.frac.__getitem__, lat.dists([k[0] for k in kept], [k[1] for k in kept]))
    edges = [Edge(labels[cu], labels[cv], cap, x) for (cu, cv, cap), x in zip(kept, lengths)]
    terminals = {t: labels[by[g.terminals[t]]] for t in g.terminals}
    return TerminalGraph(vertices=list(labels), edges=edges, terminals=terminals)
