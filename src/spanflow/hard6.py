"""The six-terminal hard instance family and its loss diagnostics.

The fixed six-point metric has a tight span made of a unit-height triangular
prism glued to a planar parallelogram.  Points carry associated coordinates
(x, y, z) in the skewed frame anchored at terminal c; at resolution L the
instance is a union of terminal-to-terminal paths whose interior vertices walk
the 1/L grid along four critical step directions.  Every path is geodesic, so
the identity embedding has zero loss; the diagnostics measure how much any
bounded-image embedding must lose.

Generation and diagnostics compute on integer lattice points (distance
vectors scaled by L in `HardInstance.ivecs`, a candidate's image points on one
`tightspan.to_lattice` with the metric, which checks every vector, and keyed
by their ints); lengths, losses and bounds become exact Fractions only where
they are stored.  A grid edge is one critical step, 1/L long by construction;
only edges to terminals take `sup_dist`.  The walks' index ranges keep every
grid point inside `from_assoc`'s admissible region, for every L >= 2.
`diagnose` checks the candidate's cover on those ints once, makes one
`PointLattice` of them and runs all three reports on it, stepping on the grid
index through `HardInstance.steps`, a neighbour table built once per instance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add
from typing import Mapping, NamedTuple

from .metric import (MetricError, TerminalMetric, Vec, as_fraction, collinear_triples,
                     pair_key, pair_table)
from .graphs import Edge, TerminalGraph
from .flow import Demand
from .textio import str_each
from .tightspan import (FractionTable, PointLattice, int_in_span, lattice_ints, on_scale,
                        to_lattice, weighted_sum)

TERMS = ("a", "b", "c", "d", "e", "f")

_D6 = {
    ("a", "b"): 2, ("a", "c"): 1, ("a", "d"): 3, ("a", "e"): 1, ("a", "f"): 2,
    ("b", "c"): 1, ("b", "d"): 3, ("b", "e"): 3, ("b", "f"): 2,
    ("c", "d"): 2, ("c", "e"): 2, ("c", "f"): 3,
    ("d", "e"): 2, ("d", "f"): 1, ("e", "f"): 1,
}


def metric6() -> TerminalMetric:
    """The fixed 6-terminal metric (distances 3 across the prism axes)."""
    return TerminalMetric.from_pairs(
        {k: Fraction(v) for k, v in _D6.items()}, terminals=TERMS)


class AssocVec(NamedTuple):
    """Coordinates in the c-anchored skewed frame of the span."""
    x: Fraction
    y: Fraction
    z: Fraction


def from_assoc(a: AssocVec) -> Vec:
    """Distance vector of an associated point; validates the admissible region."""
    x, y, z = (as_fraction(c) for c in a)
    if z < 0 or z > 1:
        raise MetricError(f"z = {z} outside [0, 1]")
    if z > 0:
        if not (0 <= x <= 1 and y >= 0 and y + 2 * z <= 2):
            raise MetricError(f"prism point {a} outside the admissible region")
    else:
        if not (0 <= 2 * x + y <= 4 and 0 <= y <= 2):
            raise MetricError(f"planar point {a} outside the admissible region")
    return {
        "a": abs(x) + 1 - z,
        "b": x + 1 + z,
        "c": x + y + z,
        "d": 2 - x + z,
        "e": abs(x - 1) + 1 - z,
        "f": 3 - x - y - z,
    }


def to_assoc(p: Mapping[str, object]) -> AssocVec:
    """Associated coordinates of a span point (inverse of from_assoc)."""
    v = {t: as_fraction(p[t]) for t in TERMS}
    x = (v["b"] - v["d"] + 1) / 2
    z = v["b"] - x - 1
    y = v["c"] - x - z
    a = AssocVec(x, y, z)
    if from_assoc(a) != v:
        raise MetricError("point is not in the span of the 6-terminal metric")
    return a


def rect_project(p: Mapping[str, object]) -> Vec:
    """Project a span point onto the planar part: (x, y, z) -> (x, y + z, 0).

    Preserves distances to c and f and the b-d distance difference; equals the
    generic projection onto the span of the metric restricted to b, c, d, f.
    """
    a = to_assoc(p)
    return from_assoc(AssocVec(a.x, a.y + a.z, Fraction(0)))


@dataclass(frozen=True)
class PathRecord:
    name: str
    group: str
    i: int
    j: int
    source: str
    sink: str
    vertex_ids: tuple[str, ...]   # includes source and sink terminal ids
    capacity: Fraction
    direction: int | None


@dataclass
class AveData:
    triple_paths: list[PathRecord]
    demand: Demand
    gamma: Fraction

    def to_json_dict(self) -> dict:
        return {"gamma": str(self.gamma),
                "demand": {f"{t},{u}": str(v) for (t, u), v in sorted(self.demand.entries.items())}}


@dataclass
class HardInstance:
    L: int
    graph: TerminalGraph
    metric: TerminalMetric
    paths: list[PathRecord]
    # per vertex id (terminals included): its distance vector times L, in TERMS order
    ivecs: dict[str, tuple[int, ...]]
    index: dict[str, tuple[int, int, int]]   # per grid vertex id: (i, j, k)
    ave: AveData | None = None

    @cached_property
    def vecs(self) -> dict[str, Vec]:   # `ivecs` as Fraction vectors, built on first read
        frac = FractionTable(self.L)
        return {vid: dict(zip(TERMS, map(frac.__getitem__, iv))) for vid, iv in self.ivecs.items()}

    def opt(self) -> Fraction:
        paths = self.all_paths()
        (ds,), scale = lattice_ints([[self.metric.d(p.source, p.sink) for p in paths]])
        return weighted_sum([p.capacity for p in paths], ds, scale)

    def all_paths(self) -> list[PathRecord]:
        if self.ave is None:
            return self.paths
        return self.paths + self.ave.triple_paths

    @cached_property
    def steps(self) -> dict[tuple[int, int, int], tuple[list[int], list[int]]]:
        """The grid's neighbour table: per step of `STEPS`, (0, 1, 0) and (1, 1, 0),
        the rows vs (ascending) and ws of all grid vertex pairs with ws[n] =
        vs[n] + step, a vertex's row being its position in `index`."""
        row = {ijk: n for n, ijk in enumerate(self.index.values())}
        out = {}
        for di, dj, dk in (*STEPS.values(), (0, 1, 0), (1, 1, 0)):
            pairs = [(n, m) for n, (i, j, k) in enumerate(self.index.values())
                     if (m := row.get((i + di, j + dj, k + dk))) is not None]
            out[di, dj, dk] = ([n for n, _ in pairs], [m for _, m in pairs])
        return out

    def to_json_dict(self) -> dict:
        """L, the ave data (None without) and every path, its vertex ids included."""
        paths = self.all_paths()
        return {
            "L": self.L, "gamma": None, "demand": None,
            **(self.ave.to_json_dict() if self.ave is not None else {}),
            "paths": [{
                "name": p.name, "group": p.group, "i": p.i, "j": p.j,
                "source": p.source, "sink": p.sink, "capacity": cap,
                "direction": p.direction, "vertices": p.vertex_ids,
            } for p, cap in zip(paths, str_each([p.capacity for p in paths]))],
        }


def _vid(i: int, j: int, k: int) -> str:
    return f"p{i}_{j}_{k}"


#: grid index step (di, dj, dk) of each critical direction
STEPS = {1: (0, 0, 1), 2: (0, 1, -1), 3: (1, 0, 0), 4: (-1, 1, 0)}


_GROUP_CAPS = {
    "ad1": 2, "be1": 2, "ad2": 2, "be2": 2,
    "ad3": 1, "be3": 1, "cf3": 2,
    "ab": 1, "de": 1,
    "ad4": 1, "be4": 1, "cf4": 2,
}


DEFAULT_GAMMA = Fraction(1, 10 ** 15)


def generate(L: int, ave: bool = False, gamma=DEFAULT_GAMMA) -> HardInstance:
    """Build the instance at resolution L (the union of all path groups).

    Vertices are the grid points touched by paths plus the two off-grid
    terminals; each edge's length is the exact span distance of its endpoints.
    With `ave`, weight-L^2 three-vertex paths are added for every collinear
    terminal triple, together with the per-pair demand plus gamma * L^2
    between a and e.

    Grid vertex (i, j, k) sits at (x, y, z) = (i, 2j, k) / L, so every
    distance vector is an int 6-vector scaled by L.  Consecutive grid points
    of a path are one critical step apart, which moves every coordinate of
    that vector by exactly 1: such an edge has length 1/L by construction.
    Only the edges joining a path to its terminals take the int sup-distance
    of their endpoints.
    """
    if L < 2:
        raise MetricError("resolution L must be at least 2")
    m = metric6()
    gamma = as_fraction(gamma)
    frac = FractionTable(L)

    vid_of: dict[tuple[int, int, int], str] = {}
    index: dict[str, tuple[int, int, int]] = {}
    ivecs: dict[str, tuple[int, ...]] = {}   # L-scaled distance vectors

    def grid(i: int, j: int, k: int) -> str:
        vid = vid_of.get((i, j, k))
        if vid is None:
            # from_assoc at (i, 2j, k) / L, scaled by L
            iv = (abs(i) + L - k, i + L + k, i + 2 * j + k,
                  2 * L - i + k, abs(i - L) + L - k, 3 * L - i - 2 * j - k)
            vid = vid_of[i, j, k] = _vid(i, j, k)
            index[vid] = (i, j, k)
            ivecs[vid] = iv
        return vid

    terminals = {
        "a": grid(0, 0, L), "c": grid(0, 0, 0), "e": grid(L, 0, L),
        "f": grid(L, L, 0), "b": "b", "d": "d",
    }
    for t in ("b", "d"):
        ivecs[t] = tuple(on_scale(m.d(t, u), L) for u in TERMS)

    caps = {group: Fraction(c) for group, c in _GROUP_CAPS.items()}
    paths: list[PathRecord] = []
    edges: list[Edge] = []

    def length(u: str, v: str) -> Fraction:   # of an edge to a terminal
        return frac[PointLattice.sup_dist(ivecs[u], ivecs[v])]

    def walk(group, i, j, src, snk, start, nsteps, direction):
        di, dj, dk = STEPS[direction] if direction is not None else (0, 0, 0)
        ii, jj, kk = start
        ids = [grid(ii + n * di, jj + n * dj, kk + n * dk) for n in range(nsteps + 1)]
        lens = [frac[1]] * nsteps   # grid steps
        if ids[0] != terminals[src]:
            lens.insert(0, length(terminals[src], ids[0]))
            ids.insert(0, terminals[src])
        if ids[-1] != terminals[snk]:
            lens.append(length(ids[-1], terminals[snk]))
            ids.append(terminals[snk])
        cap = caps[group]
        edges.extend(map(Edge, ids, ids[1:], repeat(cap), lens))
        paths.append(PathRecord(
            name=f"{group}[{i},{j}]", group=group, i=i, j=j, source=src, sink=snk,
            vertex_ids=tuple(ids), capacity=cap, direction=direction))

    rng_all = [(i, j) for i in range(L + 1) for j in range(L + 1)]
    rng_tri = [(i, j) for i in range(L + 1) for j in range(L + 1) if i + j <= L]
    for i, j in rng_all:
        walk("ad1", i, j, "d", "a", (i, j, 0), L - j, 1)
        walk("be1", i, j, "b", "e", (i, j, 0), L - j, 1)
        walk("ad2", i, j, "a", "d", (i, 0, j), j, 2)
        walk("be2", i, j, "e", "b", (i, 0, j), j, 2)
    for i, j in rng_tri:
        walk("ad3", i, j, "a", "d", (0, i, j), L, 3)
        walk("be3", i, j, "b", "e", (0, i, j), L, 3)
        walk("cf3", i, j, "c", "f", (0, i, j), L, 3)
        walk("ab", i, j, "a", "b", (0, i, j), 0, None)
        walk("de", i, j, "e", "d", (L, i, j), 0, None)
    for grp, src, snk in (("ad4", "d", "a"), ("be4", "e", "b"), ("cf4", "c", "f")):
        for i, j in rng_tri:
            walk(grp, i, j, src, snk, (i, 0, j), i, 4)
        for i in range(L + 1):
            for j in range(L + 1):
                if L < i + j:
                    walk(grp, i, j, src, snk, (i, 0, j), L - j, 4)
        for i in range(L + 1, 2 * L + 1):
            for j in range(0, min(L, 2 * L - i) + 1):
                walk(grp, i, j, src, snk, (L, i - L, j), 2 * L - i - j, 4)

    ave_data = None
    if ave:
        weight = Fraction(L * L)
        triples = collinear_triples(m)
        tri_paths = []
        for t, mid, u in triples:
            ids = (terminals[t], terminals[mid], terminals[u])
            tri_paths.append(PathRecord(
                name=f"tri[{t}{mid}{u}]", group="tri", i=0, j=0, source=t, sink=u,
                vertex_ids=ids, capacity=weight, direction=None))
            edges.append(Edge(ids[0], ids[1], weight, m.d(t, mid)))
            edges.append(Edge(ids[1], ids[2], weight, m.d(mid, u)))
        dem: dict[tuple[str, str], int] = {}   # capacities are integral
        for p in paths + tri_paths:
            key = pair_key(p.source, p.sink)
            dem[key] = dem.get(key, 0) + int(p.capacity)
        entries = {key: Fraction(v) for key, v in dem.items()}
        entries[("a", "e")] = entries.get(("a", "e"), Fraction(0)) + gamma * weight
        ave_data = AveData(triple_paths=tri_paths, demand=Demand(entries), gamma=gamma)

    graph = TerminalGraph(vertices=list(ivecs), edges=edges, terminals=terminals)
    return HardInstance(L=L, graph=graph, metric=m, paths=paths,
                        ivecs=ivecs, index=index, ave=ave_data)


# ---------------------------------------------------------------------------
# candidate solutions and losses


@dataclass
class CandidateSolution:
    """A bounded-image embedding: every vertex mapped to a span point."""
    f: dict[str, Vec]


def identity_solution(inst: HardInstance) -> CandidateSolution:
    return CandidateSolution(f=dict(inst.vecs))


def grid_snap(inst: HardInstance, g: int) -> CandidateSolution:
    """Snap every non-terminal to the g-grid of associated coordinates.

    x and z round to multiples of 1/g, y to multiples of 2/g; z is then
    reduced onto the grid until the point is admissible again.  Terminals stay
    fixed, so the image has at most (g+1)^3 + 6 points; the vertices snapped
    to one point share its dict.
    """
    if g < 1:
        raise MetricError("snap grid must be at least 1")
    terminal_of = {vid: t for t, vid in inst.graph.terminals.items()}
    # round half up: floor(i/L * g + 1/2) = (2ig + L) // 2L, likewise j, k
    snap = [min(max((2 * n * g + inst.L) // (2 * inst.L), 0), g) for n in range(inst.L + 1)]
    snapped: dict[tuple[int, int, int], Vec] = {}
    f: dict[str, Vec] = {}
    for vid in inst.graph.vertices:
        if vid in terminal_of:
            f[vid] = inst.metric.row(terminal_of[vid])
            continue
        i, j, k = inst.index[vid]
        key = (snap[i], snap[j], min(snap[k], g - snap[j]))
        point = snapped.get(key)
        if point is None:
            point = snapped[key] = from_assoc(AssocVec(
                Fraction(key[0], g), Fraction(2 * key[1], g), Fraction(key[2], g)))
        f[vid] = point
    return CandidateSolution(f=f)


class PathLoss(NamedTuple):
    name: str
    group: str
    capacity: Fraction
    excess: Fraction      # embedded length minus terminal distance
    loss: Fraction        # capacity * excess


@dataclass
class LossReport:
    per_path: list[PathLoss]
    total: Fraction       # == vol - opt


def _check_cover(inst: HardInstance, sol: CandidateSolution
                 ) -> tuple[dict[str, int], list[tuple[int, ...]], int]:
    """Check that sol covers inst, fixes the terminals and maps into the span.

    Returns the image-point id of every vertex of sol, the distinct image
    points as ints in TERMS order on one lattice with the metric, and its
    scale.  The distinct vector objects cross into ints in one `to_lattice`
    call, which checks each of them; image points are keyed by their ints,
    a terminal's is compared with the metric's int row, and span membership
    is tested once per image point.
    """
    missing = [v for v in inst.graph.vertices if v not in sol.f]
    if missing:
        raise MetricError(f"solution misses vertices {missing[:3]}")
    slot: dict[int, int] = {}   # id(vector) -> its index in vecs
    vecs = []
    for vec in sol.f.values():
        if id(vec) not in slot:
            slot[id(vec)] = len(vecs)
            vecs.append(vec)
    d, ivecs, S = to_lattice(inst.metric, vecs)
    for t, vid in inst.graph.terminals.items():
        if ivecs[slot[id(sol.f[vid])]] != d[inst.metric.index(t)]:
            raise MetricError(f"terminal {t} must map to itself")
    ids: dict[tuple[int, ...], int] = {}
    pid = [ids.setdefault(tuple(x), len(ids)) for x in ivecs]
    image = {vid: pid[slot[id(vec)]] for vid, vec in sol.f.items()}
    ipts = list(ids)
    for n, x in enumerate(ipts):
        if not int_in_span(d, x):
            vid = next(v for v, p in image.items() if p == n)
            raise MetricError(f"image of vertex {vid} is outside the span")
    return image, ipts, S


class _Lattice(PointLattice):
    """A checked candidate solution: its distinct image points on one lattice.

    `image[vid]` is a vertex's point id and `rows[n]` that of the grid vertex
    in row n (`HardInstance.steps`); the points, their S-scaled ints and
    distances are the `PointLattice` ones.
    """

    def __init__(self, inst: HardInstance, sol: CandidateSolution):
        self.inst = inst
        self.image, ipts, S = _check_cover(inst, sol)
        super().__init__(ipts, S)
        self.rows = list(map(self.image.__getitem__, inst.index))

    def steps(self, step: tuple[int, int, int]) -> tuple[list[int], list[int]]:
        """The point ids of both ends of every grid step `step`, in row order."""
        return tuple(list(map(self.rows.__getitem__, ns)) for ns in self.inst.steps[step])

    @cached_property
    def excess(self) -> list[int]:
        """S-scaled embedded length minus terminal distance, per `inst.all_paths()` path."""
        image = self.image.__getitem__
        term_dist: dict[tuple[str, str], int] = {}
        out = []
        for p in self.inst.all_paths():
            ps = list(map(image, p.vertex_ids))
            pair = (p.source, p.sink)
            if pair not in term_dist:
                term_dist[pair] = on_scale(self.inst.metric.d(*pair), self.S)
            out.append(sum(self.dists(ps, ps[1:])) - term_dist[pair])
        return out

    @cached_property
    def total(self) -> Fraction:
        """vol - opt: the capacity-weighted sum of the path excesses."""
        return weighted_sum([p.capacity for p in self.inst.all_paths()], self.excess, self.S)

    @cached_property
    def xs(self) -> list[int]:
        """Each point's associated x scaled by 2S: 2S·x = p_b - p_d + S."""
        S = self.S
        return [b - d + S for _, b, _, d, _, _ in self.ipts]


def _losses(lat: _Lattice) -> LossReport:
    """Capacity-weighted per-path losses; total equals vol - opt exactly."""
    paths = lat.inst.all_paths()
    (cs,), scale = lattice_ints([[p.capacity for p in paths]])
    loss = FractionTable(scale * lat.S)   # c * n -> capacity * excess, one object per value
    out = [PathLoss(p.name, p.group, p.capacity, lat.frac[n], loss[c * n])
           for p, c, n in zip(paths, cs, lat.excess)]
    return LossReport(per_path=out, total=lat.total)


#: direction -> ((table, anchor) pairs entering that direction's aggregate bound)
AGGREGATE_TERMS = {
    1: (("fwd", "d"), ("fwd", "b")),
    2: (("bwd", "d"), ("bwd", "b")),
    3: (("bwd", "d"), ("fwd", "b"), ("fwd", "c"), ("fwd", "c")),
    4: (("fwd", "d"), ("bwd", "b"), ("fwd", "c"), ("fwd", "c")),
}


@dataclass
class DirectionalReport:
    """The four per-direction aggregate bounds and the per-step x-bound checks."""
    aggregates: list[tuple[str, Fraction, Fraction]]  # (label, lhs, rhs)
    x_bounds_ok: bool
    x_bound_failures: list[str]


def _directional(lat: _Lattice) -> DirectionalReport:
    """The four aggregate lower bounds and the per-step x bounds.

    Each aggregate compares the (unweighted, with the stated coefficients)
    loss of a path family against the summed telescoping terms it dominates.
    With S-scaled distances and x scaled by 2S, the per-step x bound
    l + l' >= 2|dx| reads l + l' >= |dX|.  The anchor bounds need no check: a
    span point has d(v, t) = v_t, so they reduce to the ab, ad, de and be pairs.
    """
    inst = lat.inst
    frac, X = lat.frac, lat.xs
    # per anchor terminal: the S-scaled distance of every image point to it
    near = {t: [lat.sup_dist(q, lat.ipts[lat.image[inst.graph.terminals[t]]]) for q in lat.ipts]
            for t in "bcd"}
    db = list(map(add, near["d"], near["b"]))

    # per direction and anchor: the sums over grid steps v -> w of the
    # telescoping terms l(v, t) = s + diff ("fwd") and l'(v, t) = s - diff
    # ("bwd"), s the step's length and diff = d(v, t) - d(w, t)
    sums = {}
    failed = []   # (row, direction) of each failed x bound
    for direction, step in STEPS.items():
        pv, pw = lat.steps(step)
        ss = list(lat.dists(pv, pw))
        for t in "bcd":
            diff = sum(map(near[t].__getitem__, pv)) - sum(map(near[t].__getitem__, pw))
            sums[direction, "fwd", t], sums[direction, "bwd", t] = sum(ss) + diff, sum(ss) - diff
        if direction in (1, 2):
            # l(v, d) + l(v, b) along direction 1, l'(v, d) + l'(v, b) along 2
            sign = 1 if direction == 1 else -1
            for n, p, q, s in zip(inst.steps[step][0], pv, pw, ss):
                if 2 * s + sign * (db[p] - db[q]) < abs(X[p] - X[q]):
                    failed.append((n, direction))
    vids = list(inst.index)
    failures = [f"dir{direction} x-bound at {vids[n]}" for n, direction in sorted(failed)]

    group_excess: dict[str, int] = {}
    for p, n in zip(inst.paths, lat.excess):   # all_paths() starts with inst.paths
        group_excess[p.group] = group_excess.get(p.group, 0) + n
    aggregates = []
    for direction, terms in AGGREGATE_TERMS.items():
        lhs = (group_excess[f"ad{direction}"] + group_excess[f"be{direction}"]
               + 2 * group_excess.get(f"cf{direction}", 0))
        rhs = sum(sums[(direction,) + term] for term in terms)
        aggregates.append((f"dir{direction}", frac[lhs], frac[rhs]))
    return DirectionalReport(aggregates=aggregates, x_bounds_ok=not failures,
                             x_bound_failures=failures)


@dataclass
class PlanarReport:
    """Losses of the planar projection p(v) = fold-down of f(v)."""
    l_x: dict[str, Fraction]
    l_y: dict[str, Fraction]
    l_z1: dict[str, Fraction]
    l_z2: dict[str, Fraction]
    table: dict[tuple[int, int], Fraction]   # l[jy, kz] per grid line
    step_bound_failures: list[str]
    transfer_bound_failures: list[str]
    bound_lhs: Fraction     # vol - opt
    bound_rhs: Fraction     # 2/3 sum of planar losses + boundary sums


def _planar(lat: _Lattice) -> PlanarReport:
    """Losses of the projected points, all computed at scale T = 2S."""
    inst = lat.inst
    L, T, steps = inst.L, 2 * lat.S, inst.steps
    # rect_project keeps x and folds z into y: 2S·(y + z) = 2·p_c - 2S·x;
    # per image point x, y, u = 2x + y and w = 2x - y
    X = lat.xs
    Y = [2 * p[2] - x for x, p in zip(X, lat.ipts)]
    U = [2 * x + y for x, y in zip(X, Y)]
    W = [2 * x - y for x, y in zip(X, Y)]

    def along(step, loss) -> dict[int, int]:   # row -> loss(p, q) of its image points
        return dict(zip(steps[step][0], map(loss, *lat.steps(step))))

    l_x = along(STEPS[3], lambda p, q: abs(Y[p] - Y[q]) + 2 * max(U[p] - U[q], 0))
    l_y = along((0, 1, 0), lambda p, q: 2 * abs(X[p] - X[q]))
    l_z1 = along(STEPS[4], lambda p, q: abs(U[p] - U[q]))
    l_z2 = along((1, 1, 0), lambda p, q: abs(W[p] - W[q]))
    vids = list(inst.index)
    cx_fail = [vids[n] for n, p, q in zip(steps[STEPS[3]][0], *lat.steps(STEPS[3]))
               if l_x[n] < 2 * max(X[p] - X[q], 0)]

    w3, w34 = dict(zip(*steps[STEPS[3]])), dict(zip(*steps[(0, 1, 0)]))
    tr_fail = [vids[n] for n, z2 in l_z2.items()
               if n in l_x and w34.get(n) in l_x and n in l_y and w3.get(n) in l_y
               and w3.get(n) in l_z1
               and z2 > l_x[n] + l_x[w34[n]] + l_y[n] + l_y[w3[n]] + l_z1[w3[n]]]

    # per grid line (jy, kz): the losses of its vertices plus 3 times its
    # boundary terms max(x, 0) at i = 0 and max(1 - x, 0) at i = L; the
    # bound's right side takes the boundary terms twice (`ends`)
    line = {(jy, kz): 0 for jy in range(L + 1) for kz in range(L + 1 - jy)}
    ends = 0
    for n, (i, j, k) in enumerate(inst.index.values()):
        end = max(X[lat.rows[n]], 0) if i == 0 else max(T - X[lat.rows[n]], 0) if i == L else 0
        line[j, k] += (l_x.get(n, 0) + l_y.get(n, 0) + l_z1.get(n, 0) + l_z2.get(n, 0)
                       + 3 * end)
        ends += 2 * end
    frac = FractionTable(T)
    planar_sum = sum(l_x.values()) + sum(l_y.values()) + sum(l_z1.values()) + sum(l_z2.values())
    rhs = Fraction(2 * planar_sum + 3 * ends, 3 * T)

    def fracs(ls: dict[int, int]) -> dict[str, Fraction]:
        return {vids[n]: frac[v] for n, v in ls.items()}

    return PlanarReport(l_x=fracs(l_x), l_y=fracs(l_y), l_z1=fracs(l_z1),
                        l_z2=fracs(l_z2), table={key: frac[v] for key, v in line.items()},
                        step_bound_failures=cx_fail, transfer_bound_failures=tr_fail,
                        bound_lhs=lat.total, bound_rhs=rhs)


@dataclass
class Diagnosis:
    """All three loss diagnostics of one candidate solution."""
    image_size: int         # distinct image points
    losses: LossReport
    directional: DirectionalReport
    planar: PlanarReport

    @property
    def total_loss(self) -> Fraction:
        """vol - opt, the capacity-weighted sum of the path losses."""
        return self.losses.total

    def to_json_dict(self) -> dict:
        """The reports' figures, path losses and planar vertex losses, as strings."""
        dr, pr, per_path = self.directional, self.planar, self.losses.per_path
        planar = (pr.l_x, pr.l_y, pr.l_z1, pr.l_z2)
        vids = sorted(set().union(*planar))
        return {
            "image_size": self.image_size,
            "total_loss": str(self.total_loss),
            "aggregates": {label: {"lhs": str(l), "rhs": str(r)} for label, l, r in dr.aggregates},
            "x_bounds_ok": dr.x_bounds_ok,
            "step_bound_failures": len(pr.step_bound_failures),
            "transfer_bound_failures": len(pr.transfer_bound_failures),
            "planar_bound": {"lhs": str(pr.bound_lhs), "rhs": str(pr.bound_rhs)},
            "line_table": {f"{jy},{kz}": str(v) for (jy, kz), v in sorted(pr.table.items())},
            "path_losses": dict(zip([p.name for p in per_path],
                                    str_each([p.loss for p in per_path]))),
            "vertex_losses": {
                vid: {"x": x, "y": y, "z1": z1, "z2": z2}
                for vid, x, y, z1, z2 in zip(vids, *(str_each([ls.get(v, 0) for v in vids])
                                                     for ls in planar))
            },
        }


def diagnose(inst: HardInstance, sol: CandidateSolution) -> Diagnosis:
    """The loss, directional and planar reports of sol on one checked lattice.

    The cover is checked and the image put on its lattice once for all three.
    """
    lat = _Lattice(inst, sol)
    return Diagnosis(image_size=len(lat.ipts), losses=_losses(lat),
                     directional=_directional(lat), planar=_planar(lat))


# ---------------------------------------------------------------------------
# average-version machinery


def _delta_table(deltas: Mapping[tuple[str, str], object]) -> dict[tuple[str, str], Fraction]:
    """The deltas keyed by `pair_key` (pairs given in either order), all 15 present."""
    table = pair_table(deltas)
    for t, u in _D6:
        if (t, u) not in table:
            raise MetricError(f"missing delta for pair ({t}, {u})")
    return table


def _violations(inst: HardInstance, table: Mapping[tuple[str, str], Fraction],
                eta: Fraction) -> list[str]:
    """The collinear triples whose positive slack in `table` reaches eta."""
    out = []
    for t, mid, u in collinear_triples(inst.metric):
        slack = table[pair_key(t, mid)] + table[pair_key(mid, u)] - table[pair_key(t, u)]
        if slack > 0 and slack >= eta:
            out.append(f"triple ({t}, {mid}, {u}): slack {slack}")
    return out


@dataclass
class GoodReport:
    good: bool
    violations: list[str]


def check_good(inst: HardInstance, deltas: Mapping[tuple[str, str], object],
               eta) -> GoodReport:
    """Are all collinear-triple equalities respected up to slack eta?

    A triple violates when its positive slack reaches eta (exact equalities
    never violate, even at eta = 0).
    """
    if inst.ave is None:
        raise MetricError("check_good needs an average-version instance")
    eta = as_fraction(eta)
    violations = _violations(inst, _delta_table(deltas), eta)
    return GoodReport(good=not violations, violations=violations)


def _adjusted_table(A: Fraction, B: Fraction) -> dict[tuple[str, str], Fraction]:
    return {
        ("a", "c"): A, ("b", "c"): A, ("d", "f"): A, ("e", "f"): A,
        ("a", "e"): B,
        ("a", "b"): 2 * A, ("d", "e"): 2 * A,
        ("a", "f"): A + B, ("b", "f"): A + B, ("c", "d"): A + B, ("c", "e"): A + B,
        ("a", "d"): 2 * A + B, ("b", "e"): 2 * A + B, ("c", "f"): 2 * A + B,
        ("b", "d"): 2 * A + B,
    }


@dataclass
class AdjustedSolution:
    deltas: dict[tuple[str, str], Fraction]     # exact-collinear terminal table
    cluster_vectors: dict[tuple, Vec]           # original image point -> new vector
    scale: Fraction                             # normalization factor
    image_size_before: int
    image_size_after: int
    cost_before: Fraction
    cost_after: Fraction


def adjust_solution(inst: HardInstance, sol: CandidateSolution,
                    deltas: Mapping[tuple[str, str], object], eta) -> AdjustedSolution:
    """Repair near-collinear terminal distances into exact collinearity.

    Requires a `good` input (see check_good).  Terminals are split into
    singleton clusters, every other cluster vector x is remapped through
    x_t := max_s |x_s - delta'(t, s)|, and everything is rescaled so the
    demand-weighted average terminal distance is unchanged.  The image grows
    by at most six and the cost by at most a factor (1 + 30 * eta).
    """
    if inst.ave is None:
        raise MetricError("adjust_solution needs an average-version instance")
    eta = as_fraction(eta)
    given = _delta_table(deltas)
    violations = _violations(inst, given, eta)
    if violations:
        raise MetricError("input is not good: " + "; ".join(violations))
    lat = _Lattice(inst, sol)

    table = _adjusted_table(given["b", "c"] - 3 * eta, given["a", "e"] - 3 * eta)
    tbar = {t: {s: (table[pair_key(t, s)] if s != t else Fraction(0)) for s in TERMS}
            for t in TERMS}
    terminal_of = {vid: t for t, vid in inst.graph.terminals.items()}
    remapped: dict[tuple, Vec] = {}
    for vid, pid in lat.image.items():
        key = lat.points[pid]
        if vid not in terminal_of and key not in remapped:
            remapped[key] = {t: max(abs(x - tbar[t][s]) for s, x in zip(TERMS, key))
                             for t in TERMS}

    demand = inst.ave.demand
    avg_in = demand.total_weighted(given)
    avg_new = demand.total_weighted(table)
    scale = avg_in / avg_new
    for key in remapped:
        remapped[key] = {t: scale * x for t, x in remapped[key].items()}
    final_table = {k: scale * v for k, v in table.items()}

    # the remapped points on a lattice of their own; mid[pid] is pid's index there
    moved = PointLattice.of([tuple(vec[t] for t in TERMS) for vec in remapped.values()])
    index_of = {key: n for n, key in enumerate(remapped)}
    mid = {pid: index_of[key] for pid, key in enumerate(lat.points) if key in index_of}
    col = {t: n for n, t in enumerate(TERMS)}
    tt_before = tt_after = Fraction(0)   # terminal-terminal edges
    caps, before, after = [], [], []     # the rest: capacity, scaled lengths
    for u, v, cap, _ in inst.graph.edges:
        tu, tv = terminal_of.get(u), terminal_of.get(v)
        if tu is not None and tv is not None:
            if tu != tv:   # a terminal self-loop costs nothing
                tt_before += cap * given[pair_key(tu, tv)]
                tt_after += cap * final_table[pair_key(tu, tv)]
            continue
        pu, pv = lat.image[u], lat.image[v]
        caps.append(cap)
        before.append(lat.dist(pu, pv))
        if tu is not None:
            after.append(moved.ipts[mid[pv]][col[tu]])
        elif tv is not None:
            after.append(moved.ipts[mid[pu]][col[tv]])
        else:
            after.append(moved.dist(mid[pu], mid[pv]))
    cost_before = tt_before + weighted_sum(caps, before, lat.S)
    cost_after = tt_after + weighted_sum(caps, after, moved.S)

    return AdjustedSolution(
        deltas=final_table, cluster_vectors=remapped, scale=scale,
        image_size_before=len(lat.points), image_size_after=len(set(moved.points)) + 6,
        cost_before=cost_before, cost_after=cost_after)
