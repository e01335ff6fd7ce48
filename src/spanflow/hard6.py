"""The six-terminal hard instance family and its loss diagnostics.

The fixed six-point metric has a tight span made of a unit-height triangular
prism glued to a planar parallelogram.  Points carry associated coordinates
(x, y, z) in the skewed frame anchored at terminal c; at resolution L the
instance is a union of terminal-to-terminal paths whose interior vertices walk
the 1/L grid along four critical step directions.  Every path is geodesic, so
the identity embedding has zero loss; the diagnostics measure how much any
bounded-image embedding must lose.

Generation and diagnostics compute on integer lattice points (grid vertices
scaled by L, a candidate's image points on one `tightspan.to_lattice` with the
metric); lengths, losses and bounds become exact Fractions only where they
are stored.  Each diagnostic checks the candidate's cover on those ints and
makes its `PointLattice` of them; `diagnose` runs all three on one lattice.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple

from .metric import (MetricError, TerminalMetric, Vec, as_fraction, check_vector,
                     collinear_triples, pair_key)
from .graphs import Edge, TerminalGraph
from .flow import Demand
from .tightspan import (FractionTable, PointLattice, int_in_span, on_scale, to_lattice,
                        weighted_sum)

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


def assoc_distance_lower(a: AssocVec, b: AssocVec) -> Fraction:
    """Lower bound |dx| + |dz| on the span distance (tight along axes 1-4)."""
    return abs(a.x - b.x) + abs(a.z - b.z)


def rect_distance(a: AssocVec, b: AssocVec) -> Fraction:
    """Exact span distance for two planar (z = 0) points."""
    if a.z != 0 or b.z != 0:
        raise MetricError("rect_distance requires z = 0 on both points")
    return (abs((2 * a.x + a.y) - (2 * b.x + b.y)) + abs(a.y - b.y)) / 2


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


@dataclass
class HardInstance:
    L: int
    graph: TerminalGraph
    metric: TerminalMetric
    paths: list[PathRecord]
    assoc: dict[str, AssocVec]   # per grid vertex id
    vecs: dict[str, Vec]         # per vertex id (terminals included)
    index: dict[str, tuple[int, int, int]]   # per grid vertex id: (i, j, k)
    ave: AveData | None = None

    def opt(self) -> Fraction:
        return sum((p.capacity * self.metric.d(p.source, p.sink)
                    for p in self.all_paths()), Fraction(0))

    def all_paths(self) -> list[PathRecord]:
        if self.ave is None:
            return self.paths
        return self.paths + self.ave.triple_paths

    def neighbor(self, vid: str, direction: int) -> str | None:
        """Grid vertex one step along a critical direction, if it exists."""
        if direction not in STEPS:
            raise ValueError("direction must be 1..4")
        ijk = self.index.get(vid)
        if ijk is None:
            return None
        return _grid_step(self.L, ijk, STEPS[direction])


def _vid(i: int, j: int, k: int) -> str:
    return f"p{i}_{j}_{k}"


#: grid index step (di, dj, dk) of each critical direction
STEPS = {1: (0, 0, 1), 2: (0, 1, -1), 3: (1, 0, 0), 4: (-1, 1, 0)}


def _grid_step(L: int, ijk: tuple[int, int, int], step) -> str | None:
    """Id of the grid vertex at index ijk + step, or None off the grid."""
    i, j, k = ijk[0] + step[0], ijk[1] + step[1], ijk[2] + step[2]
    if i < 0 or i > L or j < 0 or k < 0 or j + k > L:
        return None
    return _vid(i, j, k)


def _admissible(L: int, i: int, j: int, k: int) -> bool:
    """from_assoc's admissible region at (i/L, 2j/L, k/L), scaled by L."""
    if k < 0 or k > L:
        return False
    if k > 0:
        return 0 <= i <= L and j >= 0 and j + k <= L
    return 0 <= i + j <= 2 * L and 0 <= j <= L


_GROUP_CAPS = {
    "ad1": 2, "be1": 2, "ad2": 2, "be2": 2,
    "ad3": 1, "be3": 1, "cf3": 2,
    "ab": 1, "de": 1,
    "ad4": 1, "be4": 1, "cf4": 2,
}


def generate(L: int, ave: bool = False, gamma=Fraction(1, 10 ** 15)) -> HardInstance:
    """Build the instance at resolution L (the union of all path groups).

    Vertices are the grid points touched by paths plus the two off-grid
    terminals; each edge's length is the exact span distance of its endpoints.
    With `ave`, weight-L^2 three-vertex paths are added for every collinear
    terminal triple, together with the per-pair demand plus gamma * L^2
    between a and e.

    Grid vertex (i, j, k) sits at (x, y, z) = (i, 2j, k) / L, so every
    distance vector is an int 6-vector scaled by L; lengths are computed on
    those ints and become Fractions only when stored.
    """
    if L < 2:
        raise MetricError("resolution L must be at least 2")
    m = metric6()
    gamma = as_fraction(gamma)
    frac = FractionTable(L)

    index: dict[str, tuple[int, int, int]] = {}
    assoc: dict[str, AssocVec] = {}
    vecs: dict[str, Vec] = {}
    ivecs: dict[str, tuple[int, ...]] = {}   # L-scaled distance vectors

    def grid(i: int, j: int, k: int) -> str:
        vid = _vid(i, j, k)
        if vid not in index:
            if not _admissible(L, i, j, k):
                raise MetricError(f"grid point {(i, j, k)} outside the admissible region")
            # from_assoc at (i, 2j, k) / L, scaled by L
            iv = (abs(i) + L - k, i + L + k, i + 2 * j + k,
                  2 * L - i + k, abs(i - L) + L - k, 3 * L - i - 2 * j - k)
            index[vid] = (i, j, k)
            ivecs[vid] = iv
            assoc[vid] = AssocVec(frac[i], frac[2 * j], frac[k])
            vecs[vid] = dict(zip(TERMS, [frac[n] for n in iv]))
        return vid

    terminals = {
        "a": grid(0, 0, L), "c": grid(0, 0, 0), "e": grid(L, 0, L),
        "f": grid(L, L, 0), "b": "b", "d": "d",
    }
    for t in ("b", "d"):
        vecs[t] = m.row(t)
        ivecs[t] = tuple(int(L * vecs[t][u]) for u in TERMS)   # integral rows

    caps = {group: Fraction(c) for group, c in _GROUP_CAPS.items()}
    paths: list[PathRecord] = []

    def walk(group, i, j, src, snk, start, nsteps, direction):
        di, dj, dk = STEPS[direction] if direction is not None else (0, 0, 0)
        ids = [terminals[src]]
        ii, jj, kk = start
        for n in range(nsteps + 1):
            vid = grid(ii + n * di, jj + n * dj, kk + n * dk)
            if vid != ids[-1]:
                ids.append(vid)
        if terminals[snk] != ids[-1]:
            ids.append(terminals[snk])
        paths.append(PathRecord(
            name=f"{group}[{i},{j}]", group=group, i=i, j=j, source=src, sink=snk,
            vertex_ids=tuple(ids), capacity=caps[group], direction=direction))

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

    # parallel paths repeat vertex pairs: one length per pair
    lengths: dict[tuple[str, str], Fraction] = {}
    edges: list[Edge] = []
    for p in paths:
        ids = p.vertex_ids
        for uv in zip(ids, ids[1:]):
            length = lengths.get(uv)
            if length is None:
                length = lengths[uv] = frac[PointLattice.sup_dist(ivecs[uv[0]], ivecs[uv[1]])]
            edges.append(Edge(uv[0], uv[1], p.capacity, length))

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

    graph = TerminalGraph(vertices=list(vecs), edges=edges, terminals=terminals)
    return HardInstance(L=L, graph=graph, metric=m, paths=paths,
                        assoc=assoc, vecs=vecs, index=index, ave=ave_data)


# ---------------------------------------------------------------------------
# candidate solutions and losses


@dataclass
class CandidateSolution:
    """A bounded-image embedding: every vertex mapped to a span point."""
    f: dict[str, Vec]

    def image_size(self) -> int:
        return len({tuple(v[t] for t in TERMS) for v in self.f.values()})


def identity_solution(inst: HardInstance) -> CandidateSolution:
    return CandidateSolution(f=dict(inst.vecs))


def grid_snap(inst: HardInstance, g: int) -> CandidateSolution:
    """Snap every non-terminal to the g-grid of associated coordinates.

    x and z round to multiples of 1/g, y to multiples of 2/g; z is then
    reduced onto the grid until the point is admissible again.  Terminals stay
    fixed, so the image has at most (g+1)^3 + 6 points.
    """
    if g < 1:
        raise MetricError("snap grid must be at least 1")
    terminal_ids = set(inst.graph.terminals.values())
    L2 = 2 * inst.L
    snapped: dict[tuple[int, int, int], Vec] = {}
    f: dict[str, Vec] = {}
    for vid, vec in inst.vecs.items():
        if vid in terminal_ids:
            f[vid] = dict(vec)
            continue
        # round half up: floor(i/L * g + 1/2) = (2ig + L) // 2L, likewise j, k
        i, j, k = inst.index[vid]
        xi = min(max((2 * i * g + inst.L) // L2, 0), g)
        yi = min(max((2 * j * g + inst.L) // L2, 0), g)
        zi = min(max((2 * k * g + inst.L) // L2, 0), g)
        key = (xi, yi, min(zi, g - yi))
        point = snapped.get(key)
        if point is None:
            point = snapped[key] = from_assoc(AssocVec(
                Fraction(key[0], g), Fraction(2 * key[1], g), Fraction(key[2], g)))
        f[vid] = dict(point)
    return CandidateSolution(f=f)


@dataclass
class PathLoss:
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
                 ) -> tuple[dict[str, int], list[list[int]], int]:
    """Check that sol covers inst, fixes the terminals and maps into the span.

    Returns the image-point id of every vertex of sol, the distinct image
    points as ints in TERMS order on one lattice with the metric, and its
    scale; span membership is tested once per point, on those ints.
    """
    missing = [v for v in inst.vecs if v not in sol.f]
    if missing:
        raise MetricError(f"solution misses vertices {missing[:3]}")
    for t, vid in inst.graph.terminals.items():
        if sol.f[vid] != inst.metric.row(t):
            raise MetricError(f"terminal {t} must map to itself")
    ids: dict[tuple, int] = {}
    image: dict[str, int] = {}
    owners, points = [], []   # per image point: its first vertex, its checked vector
    for vid, vec in sol.f.items():
        key = tuple(vec[t] for t in TERMS)
        pid = ids.get(key)
        if pid is None:
            pid = ids[key] = len(ids)
            owners.append(vid)
            points.append(check_vector(inst.metric, vec))
        image[vid] = pid
    d, ipts, S = to_lattice(inst.metric, points)
    for vid, x in zip(owners, ipts):
        if not int_in_span(d, x):
            raise MetricError(f"image of vertex {vid} is outside the span")
    return image, ipts, S


class _Lattice(PointLattice):
    """A checked candidate solution: its distinct image points on one lattice.

    `image[vid]` is a vertex's point id; the points, their S-scaled ints and
    distances are the `PointLattice` ones.
    """

    def __init__(self, inst: HardInstance, sol: CandidateSolution):
        self.inst = inst
        self.image, ipts, S = _check_cover(inst, sol)
        super().__init__(ipts, S)

    @cached_property
    def excess(self) -> list[int]:
        """S-scaled embedded length minus terminal distance, per `inst.all_paths()` path."""
        image, dist = self.image, self.dist
        term_dist: dict[tuple[str, str], int] = {}
        out = []
        for p in self.inst.all_paths():
            ids = p.vertex_ids
            length = 0
            for u, v in zip(ids, ids[1:]):
                length += dist(image[u], image[v])
            pair = (p.source, p.sink)
            if pair not in term_dist:
                term_dist[pair] = on_scale(self.inst.metric.d(*pair), self.S)
            out.append(length - term_dist[pair])
        return out

    @cached_property
    def total(self) -> Fraction:
        """vol - opt: the capacity-weighted sum of the path excesses."""
        return weighted_sum([p.capacity for p in self.inst.all_paths()], self.excess, self.S)

    def assoc(self, planar: bool = False) -> dict[int, AssocVec]:
        """to_assoc of each instance vertex's image point, once per point.

        With `planar`, of its rect_project instead.
        """
        out: dict[int, AssocVec] = {}
        for vid in self.inst.vecs:
            pid = self.image[vid]
            if pid not in out:
                vec = dict(zip(TERMS, self.points[pid]))
                out[pid] = to_assoc(rect_project(vec) if planar else vec)
        return out


def losses(inst: HardInstance, sol: CandidateSolution) -> LossReport:
    """Capacity-weighted per-path losses; total equals vol - opt exactly."""
    return _losses(_Lattice(inst, sol))


def _losses(lat: _Lattice) -> LossReport:
    out = []
    for p, n in zip(lat.inst.all_paths(), lat.excess):
        out.append(PathLoss(name=p.name, group=p.group, capacity=p.capacity,
                            excess=lat.frac[n], loss=p.capacity * lat.frac[n]))
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
    """Telescoping losses per vertex, direction 1..4 and anchor in {b, c, d}."""
    forward: dict[tuple[str, int, str], Fraction]   # l_i(v, t)
    backward: dict[tuple[str, int, str], Fraction]  # l'_i(v, t)
    aggregates: list[tuple[str, Fraction, Fraction]]  # (label, lhs, rhs)
    x_bounds_ok: bool
    x_bound_failures: list[str]

    def aggregate_entries(self):
        """The (key, value) table entries the aggregate bounds sum over."""
        for (vid, direction, t), val in self.forward.items():
            if ("fwd", t) in AGGREGATE_TERMS[direction]:
                yield (vid, direction, t, "fwd"), val
        for (vid, direction, t), val in self.backward.items():
            if ("bwd", t) in AGGREGATE_TERMS[direction]:
                yield (vid, direction, t, "bwd"), val


def directional_losses(inst: HardInstance, sol: CandidateSolution) -> DirectionalReport:
    """Per-vertex direction losses plus the four aggregate lower bounds.

    Each aggregate compares the (unweighted, with the stated coefficients)
    loss of a path family against the summed telescoping terms it dominates.
    With S-scaled distances and x scaled by 2S, the per-step x bound
    l + l' >= 2|dx| reads l + l' >= |dX| and the anchor bound
    d(v, s) + d(v, t) >= 2 + 2 max(x, 0) reads D >= 2S + max(X, 0).
    """
    return _directional(_Lattice(inst, sol))


def _directional(lat: _Lattice) -> DirectionalReport:
    inst = lat.inst
    S, frac, image, dist = lat.S, lat.frac, lat.image, lat.dist
    X = {pid: on_scale(a.x, 2 * S) for pid, a in lat.assoc().items()}
    # per image point: S-scaled distances to the anchor terminals a..e
    anchors = {t: lat.ipts[image[inst.graph.terminals[t]]] for t in "abcde"}
    near = [{t: lat.sup_dist(q, r) for t, r in anchors.items()} for q in lat.ipts]

    fwd: dict[tuple[str, int, str], Fraction] = {}
    bwd: dict[tuple[str, int, str], Fraction] = {}
    sums: dict[tuple[int, str, str], int] = defaultdict(int)   # (direction, table, anchor)
    failures = []
    for vid, ijk in inst.index.items():
        pv = image[vid]
        for direction, step in STEPS.items():
            w = _grid_step(inst.L, ijk, step)
            if w is None:
                continue
            pw = image[w]
            s = dist(pv, pw)
            lf, lb = {}, {}
            for t in ("b", "c", "d"):
                diff = near[pv][t] - near[pw][t]
                lf[t], lb[t] = s + diff, s - diff
                fwd[(vid, direction, t)] = frac[lf[t]]
                bwd[(vid, direction, t)] = frac[lb[t]]
                sums[(direction, "fwd", t)] += lf[t]
                sums[(direction, "bwd", t)] += lb[t]
            if direction in (1, 2):
                both = lf["d"] + lf["b"] if direction == 1 else lb["d"] + lb["b"]
                if both < abs(X[pv] - X[pw]):
                    failures.append(f"dir{direction} x-bound at {vid}")

    group_excess: dict[str, int] = {}
    for p, n in zip(inst.paths, lat.excess):   # all_paths() starts with inst.paths
        group_excess[p.group] = group_excess.get(p.group, 0) + n
    aggregates = []
    for direction, terms in AGGREGATE_TERMS.items():
        lhs = (group_excess[f"ad{direction}"] + group_excess[f"be{direction}"]
               + 2 * group_excess.get(f"cf{direction}", 0))
        rhs = sum(sums[(direction,) + term] for term in terms)
        aggregates.append((f"dir{direction}", frac[lhs], frac[rhs]))

    for vid in inst.vecs:
        pv = image[vid]
        if near[pv]["a"] + near[pv]["b"] < 2 * S + max(X[pv], 0):
            failures.append(f"ab anchor bound at {vid}")
        if near[pv]["d"] + near[pv]["e"] < 2 * S + max(2 * S - X[pv], 0):
            failures.append(f"de anchor bound at {vid}")
    return DirectionalReport(forward=fwd, backward=bwd, aggregates=aggregates,
                             x_bounds_ok=not failures, x_bound_failures=failures)


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


def planar_losses(inst: HardInstance, sol: CandidateSolution) -> PlanarReport:
    """Losses of the projected points, all computed at scale T = 2S."""
    return _planar(_Lattice(inst, sol))


def _planar(lat: _Lattice) -> PlanarReport:
    inst = lat.inst
    L, T = inst.L, 2 * lat.S
    proj = {pid: (on_scale(a.x, T), on_scale(a.y, T))
            for pid, a in lat.assoc(planar=True).items()}
    xy = {vid: proj[lat.image[vid]] for vid in inst.vecs}

    l_x: dict[str, int] = {}
    l_y: dict[str, int] = {}
    l_z1: dict[str, int] = {}
    l_z2: dict[str, int] = {}
    cx_fail = []
    for vid, ijk in inst.index.items():
        x0, y0 = xy[vid]
        w3 = _grid_step(L, ijk, STEPS[3])
        w4 = _grid_step(L, ijk, STEPS[4])
        w34 = _grid_step(L, ijk, (0, 1, 0))
        w234 = _grid_step(L, ijk, (1, 1, 0))
        if w3 is not None:
            x3, y3 = xy[w3]
            l_x[vid] = abs(y0 - y3) + 2 * max((2 * x0 + y0) - (2 * x3 + y3), 0)
            if l_x[vid] < 2 * max(x0 - x3, 0):
                cx_fail.append(vid)
        if w34 is not None:
            l_y[vid] = 2 * abs(x0 - xy[w34][0])
        if w4 is not None:
            x4, y4 = xy[w4]
            l_z1[vid] = abs((2 * x0 + y0) - (2 * x4 + y4))
        if w234 is not None:
            x5, y5 = xy[w234]
            l_z2[vid] = abs((2 * x0 - y0) - (2 * x5 - y5))

    tr_fail = []
    for vid, ijk in inst.index.items():
        w3 = _grid_step(L, ijk, STEPS[3])
        w34 = _grid_step(L, ijk, (0, 1, 0))
        if (vid in l_z2 and vid in l_x and w34 in l_x and vid in l_y
                and w3 in l_y and w3 in l_z1):
            rhs = l_x[vid] + l_x[w34] + l_y[vid] + l_y[w3] + l_z1[w3]
            if l_z2[vid] > rhs:
                tr_fail.append(vid)

    frac = FractionTable(T)
    table: dict[tuple[int, int], Fraction] = {}
    ends = 0   # boundary sums: 2 max(x, 0) at i = 0 plus 2 max(1 - x, 0) at i = L
    for jy in range(L + 1):
        for kz in range(L + 1 - jy):
            tot = 0
            for q in range(L + 1):
                vid = _vid(q, jy, kz)
                tot += (l_x.get(vid, 0) + l_y.get(vid, 0)
                        + l_z1.get(vid, 0) + l_z2.get(vid, 0))
            edge0 = max(xy[_vid(0, jy, kz)][0], 0)
            edge1 = max(T - xy[_vid(L, jy, kz)][0], 0)
            table[(jy, kz)] = frac[tot + 3 * edge0 + 3 * edge1]
            ends += 2 * (edge0 + edge1)

    planar_sum = (sum(l_x.values()) + sum(l_y.values())
                  + sum(l_z1.values()) + sum(l_z2.values()))
    rhs = Fraction(2 * planar_sum + 3 * ends, 3 * T)

    def fracs(ls: dict[str, int]) -> dict[str, Fraction]:
        return {vid: frac[n] for vid, n in ls.items()}

    return PlanarReport(l_x=fracs(l_x), l_y=fracs(l_y), l_z1=fracs(l_z1),
                        l_z2=fracs(l_z2), table=table,
                        step_bound_failures=cx_fail, transfer_bound_failures=tr_fail,
                        bound_lhs=lat.total, bound_rhs=rhs)


@dataclass
class Diagnosis:
    """All three loss diagnostics of one candidate solution."""
    image_size: int         # distinct image points, as sol.image_size()
    losses: LossReport
    directional: DirectionalReport
    planar: PlanarReport


def diagnose(inst: HardInstance, sol: CandidateSolution) -> Diagnosis:
    """`losses`, `directional_losses` and `planar_losses` on one checked lattice.

    The cover is checked and the image put on its lattice once for all three.
    """
    lat = _Lattice(inst, sol)
    return Diagnosis(image_size=len(lat.points), losses=_losses(lat),
                     directional=_directional(lat), planar=_planar(lat))


# ---------------------------------------------------------------------------
# average-version machinery


def _delta_lookup(deltas: Mapping[tuple[str, str], object]):
    """The lookup (t, u) -> delta of a table keyed by pairs in either order."""
    norm = {pair_key(t, u): as_fraction(v) for (t, u), v in deltas.items()}
    for t, u in _D6:
        if (t, u) not in norm:
            raise MetricError(f"missing delta for pair ({t}, {u})")

    def get(t, u):
        return norm[pair_key(t, u)]
    return get


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
    get = _delta_lookup(deltas)
    violations = []
    for t, mid, u in collinear_triples(inst.metric):
        slack = get(t, mid) + get(mid, u) - get(t, u)
        if slack > 0 and slack >= eta:
            violations.append(f"triple ({t}, {mid}, {u}): slack {slack}")
    return GoodReport(good=not violations, violations=violations)


def _adjusted_table(A: Fraction, B: Fraction) -> dict[tuple[str, str], Fraction]:
    table = {
        ("a", "c"): A, ("b", "c"): A, ("d", "f"): A, ("e", "f"): A,
        ("a", "e"): B,
        ("a", "b"): 2 * A, ("d", "e"): 2 * A,
        ("a", "f"): A + B, ("b", "f"): A + B, ("c", "d"): A + B, ("c", "e"): A + B,
        ("a", "d"): 2 * A + B, ("b", "e"): 2 * A + B, ("c", "f"): 2 * A + B,
        ("b", "d"): 2 * A + B,
    }
    return table


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
    report = check_good(inst, deltas, eta)
    if not report.good:
        raise MetricError("input is not good: " + "; ".join(report.violations))
    lat = _Lattice(inst, sol)
    get_in = _delta_lookup(deltas)

    A = get_in("b", "c") - 3 * eta
    B = get_in("a", "e") - 3 * eta
    table = _adjusted_table(A, B)

    def get_new(t, u):
        return table[pair_key(t, u)]

    for t, mid, u in collinear_triples(inst.metric):
        if get_new(t, mid) + get_new(mid, u) != get_new(t, u):
            raise MetricError("adjusted table violates a collinear triple")

    tbar = {t: {s: (get_new(t, s) if s != t else Fraction(0)) for s in TERMS}
            for t in TERMS}
    terminal_of = {vid: t for t, vid in inst.graph.terminals.items()}
    remapped: dict[tuple, Vec] = {}
    for vid, pid in lat.image.items():
        key = lat.points[pid]
        if vid not in terminal_of and key not in remapped:
            remapped[key] = {t: max(abs(x - tbar[t][s]) for s, x in zip(TERMS, key))
                             for t in TERMS}

    demand = inst.ave.demand
    avg_in = demand.total_weighted({k: get_in(*k) for k in _D6})
    avg_new = demand.total_weighted({k: get_new(*k) for k in _D6})
    scale = avg_in / avg_new
    for key in remapped:
        remapped[key] = {t: scale * x for t, x in remapped[key].items()}
    final_table = {k: scale * v for k, v in table.items()}

    def get_final(t, u):
        return Fraction(0) if t == u else final_table[pair_key(t, u)]

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
            if tu != tv:
                tt_before += cap * get_in(tu, tv)
            tt_after += cap * get_final(tu, tv)
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
