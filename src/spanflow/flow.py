"""Multicommodity-flow congestion machinery.

The concurrent-flow solver maximizes the fraction lambda of a demand that can
be routed within capacities.  It solves an edge-flow LP in floating point,
by one direct HiGHS call through scipy's bundled bindings (`linprog`, with the
options `scipy.optimize.linprog(method="highs")` sets): parallel edges merged
into one arc pair of their summed capacity, self-loops dropped, one commodity
per source of a greedy cover of the demand pairs, and the columns arc-major
(commodity k on arc a is column a * nk + k, lambda last).  What it reports is
exact where stated:

* every edge's load is at most its capacity, exactly: the clipped float flow
  is read as ints on one power-of-two scale and the capacities as ints on
  their common denominator, so the loads are int sums and the capacity check
  one int comparison per merged edge, scaled down once if rounding needs it;
* lambda is the float optimum shrunk by epsilon/10, so it lies in
  [(1 - epsilon) * opt, opt] as long as the solver's relative error stays
  below epsilon/10;
* `routed` is the exact net inflow at each sink in its source's float flow.
  Conservation holds only to float accuracy, so this is lambda times the
  demand up to rounding, and a pair with a tiny demand can read near 0.

A NaN or infinite value in the solver's output raises `FlowError`.  The
single-commodity oracle and the dual checker are exact and independent of
that code path.

numpy and HiGHS's compiled core (scipy's `_highspy._core` extension, loaded
from its file, not through `scipy.optimize`) load on the first LP, not at
import: the geometry, decomposition and hard-instance code never solves an LP.
The LP matrix is built column-wise, as HiGHS reads it, and connectivity is a
union-find, so spanflow imports neither `scipy.sparse` nor `scipy.optimize`.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import add
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .graphs import TerminalGraph, shortest_distances
from .metric import as_fraction, pair_key, pair_table
from .tightspan import lattice_ints

if TYPE_CHECKING:
    import numpy as np


class FlowError(ValueError):
    """Infeasible or malformed flow problem."""


@dataclass
class Demand:
    """Symmetric nonnegative demand on unordered terminal pairs."""
    entries: dict[tuple[str, str], Fraction]

    def __post_init__(self):
        norm = {}
        for (t, u), v in self.entries.items():
            if t == u:
                raise FlowError("demand on a pair requires two distinct terminals")
            val = as_fraction(v)
            if val < 0:
                raise FlowError(f"negative demand on ({t}, {u})")
            key = pair_key(t, u)
            norm[key] = norm.get(key, Fraction(0)) + val
        self.entries = norm

    def pairs(self) -> list[tuple[str, str, Fraction]]:
        return [(t, u, v) for (t, u), v in sorted(self.entries.items()) if v > 0]

    def total_weighted(self, values: Mapping[tuple[str, str], Fraction]) -> Fraction:
        """Sum of demand * value over the entries; `values` is keyed by `pair_key`."""
        return sum((d * values[key] for key, d in self.entries.items()), Fraction(0))


@dataclass
class FlowResult:
    """lambda, its congestion, the routed flows and, built on first read, the
    per-edge loads: edge i carries load_nums[i] / (load_dens[i] * load_scale),
    exactly at most its capacity (0 on a self-loop)."""
    lam: Fraction
    congestion: Fraction
    routed: dict[tuple[str, str], Fraction]   # per demand pair, net inflow at its sink
    load_nums: list[int]
    load_dens: list[int]
    load_scale: int

    @cached_property
    def loads(self) -> list[Fraction]:
        d = self.load_scale
        return [Fraction(n, c * d) for n, c in zip(self.load_nums, self.load_dens)]


def dyadic_ints(x: np.ndarray) -> tuple[list[int], int]:
    """Finite floats as ints on one power-of-two scale S: x[i] = ints[i] / S exactly."""
    import numpy as np
    m, e = np.frexp(x)   # x = m * 2**e with m * 2**53 an int
    e = e.astype(np.int64) - 53
    low = int(e.min(initial=0))   # <= 0, so S = 2**-low is an int
    return [v << s for v, s in zip((m * 2.0 ** 53).astype(np.int64).tolist(),
                                   (e - low).tolist())], 1 << -low


class LPResult(NamedTuple):
    x: np.ndarray | None   # None unless success
    success: bool
    message: str
    nit: int


@cache
def _highs():
    """HiGHS's compiled core from scipy and the options
    `scipy.optimize.linprog(method="highs")` sets, loaded and built on the
    first LP, once per process.

    The extension is loaded from its file under its full dotted name, so
    `scipy.optimize` is not imported; a later `import scipy.optimize` reuses
    the module (loaded under another name, pybind11 would refuse to register
    its types twice).  If that name is already loaded, it is reused.
    """
    import os
    import sys
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import module_from_spec, spec_from_file_location
    name = "scipy.optimize._highspy._core"
    highs = sys.modules.get(name)
    if highs is None:
        import scipy
        base = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy", "_core")
        path = next((base + s for s in EXTENSION_SUFFIXES if os.path.exists(base + s)), None)
        if path is None:
            raise ImportError(f"scipy has no HiGHS core at {base}")
        spec = spec_from_file_location(name, path)
        highs = sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(highs)
    options = highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = 0   # kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = 1    # kSimplexStrategyDual
    return highs, options


def linprog(c, A, row_lower, row_upper) -> LPResult:
    """min c @ x subject to row_lower <= A @ x <= row_upper and x >= 0, by one
    HiGHS run.

    `A` is HiGHS's column-wise matrix `(start, index, value)`: column j's
    entries are `value[start[j]:start[j + 1]]`, in the rows `index[...]`,
    which increase within each column.  The options are the ones
    `scipy.optimize.linprog(method="highs")` sets (presolve, dual simplex, no
    output), so on the same CSC matrix, with x >= 0, it returns scipy's x and
    iteration count; it builds no marginals and makes no residual check.  A
    model that HiGHS rejects is not run: the result fails with the status
    `passModel` returned.
    """
    import numpy as np
    highs, options = _highs()
    start, index, value = A
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lower)
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(len(c))
    lp.col_upper_ = np.full(len(c), highs.kHighsInf)
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    solver = highs._Highs()
    solver.passOptions(options)
    if (passed := solver.passModel(lp)) == highs.HighsStatus.kError:   # e.g. an inf entry
        return LPResult(None, False, f"passModel returned {passed.name}", 0)
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    text = solver.modelStatusToString(status)
    if status != highs.HighsModelStatus.kOptimal:
        primal = solver.solutionStatusToString(info.primal_solution_status)
        return LPResult(None, False, f"model_status is {text}; primal_status is {primal}", nit)
    return LPResult(np.array(solver.getSolution().col_value), True, text, nit)


def _fit(num: int, den: int, what) -> float:
    """num / den as a float (int true division rounds correctly); `FlowError`
    naming `what()` when a positive value overflows or rounds to 0.0."""
    try:
        if (f := num / den) > 0:
            return f
    except OverflowError:
        pass
    raise FlowError(f"{what()} does not fit a float")


def _components(n: int, a: list[int], b: list[int]) -> list[int]:
    """A component label for each of n vertices under the edges (a[j], b[j]),
    by union-find with path halving."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for u, w in zip(a, b):
        root[find(u)] = find(w)
    return [find(v) for v in range(n)]


def _source_cover(pairs) -> list[tuple[str, list[tuple[tuple[str, str], str, Fraction]]]]:
    """Greedy cover of the demand pairs by source terminals.

    Repeatedly takes the terminal on the most uncovered pairs (ties go to the
    smaller name) as the source of all of them.  Returns each source, in the
    order taken, with its `(pair, sink, demand)` triples.
    """
    left = {(t, u): d for t, u, d in pairs}
    cover = []
    while left:
        count: dict[str, int] = {}
        for pair in left:
            for name in pair:
                count[name] = count.get(name, 0) + 1
        src = min(count, key=lambda name: (-count[name], name))
        sinks = [((t, u), u if t == src else t, d)
                 for (t, u), d in left.items() if src in (t, u)]
        for pair, _, _ in sinks:
            del left[pair]
        cover.append((src, sinks))
    return cover


def max_concurrent_flow(g: TerminalGraph, demand: Demand, epsilon) -> FlowResult:
    """Approximate maximum concurrent flow with a one-sided lambda.

    Returns lambda in [(1 - epsilon) * opt, opt]: the HiGHS optimum shrunk by
    epsilon/10, and further if the rationalized loads need it.  Parallel edges
    are merged into one arc pair of their summed capacity, self-loops are
    dropped (load 0), and each source of a greedy source cover of the demand
    (`_source_cover`) is one commodity; commodity k's flow on arc a is
    column a * nk + k.  Every load is exactly within its edge's capacity
    (int accounting of the solver's floats); conservation holds only to float
    accuracy.  A non-finite solver value, a solver lambda <= 0, or a capacity
    (summed over parallel edges) or demand that overflows a float or rounds to
    0.0, raises `FlowError`.
    """
    import numpy as np
    eps = as_fraction(epsilon)
    if not (0 < eps <= Fraction(1, 2)):
        raise FlowError("epsilon must lie in (0, 1/2]")
    pairs = demand.pairs()
    if not pairs:
        raise FlowError("demand is empty")
    vindex = {v: i for i, v in enumerate(g.vertices)}
    nv = len(g.vertices)
    ends = np.array([(vindex[e.u], vindex[e.v]) for e in g.edges],
                    dtype=np.int64).reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    real = np.flatnonzero(lo != hi)   # self-loops carry no flow
    keys, slot = np.unique(lo[real] * nv + hi[real], return_inverse=True)
    slot = slot.ravel()
    ne = len(keys)
    # merged edge j joins a[j] and b[j]; a demand pair is connected when its
    # terminals share a component of the merged edges
    a, b = keys // nv, keys % nv
    comp = _components(nv, a.tolist(), b.tolist())
    for t, u, _ in pairs:
        if t not in g.terminals or u not in g.terminals:
            raise FlowError(f"demand names unknown terminal in ({t}, {u})")
        if comp[vindex[g.terminals[t]]] != comp[vindex[g.terminals[u]]]:
            raise FlowError(f"terminals {t} and {u} are disconnected")
    # capacities as ints on their common denominator cs, merged per edge
    (cint,), cs = lattice_ints([[g.edges[i].capacity for i in real.tolist()]])
    caps = [0] * ne
    for m, ci in zip(slot.tolist(), cint):
        caps[m] += ci
    # arc j < ne runs a -> b on merged edge j, arc ne + j runs back
    tails, heads = np.concatenate([a, b]), np.concatenate([b, a])
    cover = _source_cover(pairs)
    nk = len(cover)
    nf = 2 * ne * nk   # f[arc, k] in column arc * nk + k, then lambda
    src = np.array([vindex[g.terminals[s]] for s, _ in cover])

    def row(k, v):
        """Commodity k's conservation row at vertex v, after the ne capacity
        rows: inflow - outflow - lambda * d_k(v) = 0.  Its source's row, which
        the others imply, is left out."""
        return ne + k * (nv - 1) + v - (v > src[k])

    # HiGHS's column-wise matrix.  Flow column j: its capacity row, then its
    # merged edge's lower and higher end (a < b), -1/+1 on arc a -> b and +1/-1
    # back, an entry at the source's row dropped.  Each column's rows increase
    fcols = np.arange(nf)
    arc, k = fcols // nk, fcols % nk
    e = arc % ne
    sign = np.where(arc < ne, 1.0, -1.0)
    keep = np.stack([np.ones(nf, dtype=bool), a[e] != src[k], b[e] != src[k]], axis=1)
    # then the lambda column: -d at each sink's row
    lam_rows, lam_vals = zip(*sorted(
        (row(k, vindex[g.terminals[w]]), -_fit(d.numerator, d.denominator,
                                               lambda: f"demand {d} on ({t}, {u})"))
        for k, (_, sinks) in enumerate(cover) for (t, u), w, d in sinks))
    matrix = (np.concatenate([[0], keep.sum(axis=1), [len(lam_rows)]]).cumsum(),
              np.concatenate([np.stack([e, row(k, a[e]), row(k, b[e])], axis=1)[keep], lam_rows]),
              np.concatenate([np.stack([np.ones(nf), -sign, sign], axis=1)[keep], lam_vals]))
    cap_bounds = [_fit(c, cs, lambda: f"capacity {Fraction(c, cs)} of edge "
                                      f"({g.vertices[a[j]]}, {g.vertices[b[j]]})")
                  for j, c in enumerate(caps)]
    zeros = np.zeros(nk * (nv - 1))
    c = np.zeros(nf + 1)
    c[-1] = -1.0
    res = linprog(c, matrix, np.concatenate([np.full(ne, -np.inf), zeros]),
                  np.concatenate([cap_bounds, zeros]))
    if not res.success:
        raise FlowError(f"LP solver failed: {res.message}")
    if not np.isfinite(res.x).all():
        raise FlowError("LP solver returned a non-finite value")
    if res.x[-1] <= 0:   # the demand pairs are connected and capacities positive
        raise FlowError("LP solver returned lambda <= 0 on a connected demand")

    # the clipped float flow exactly, as ints X on the power-of-two scale xs:
    # merged edge m carries used[m] / xs against capacity caps[m] / cs.  One
    # exact scale keeps every load in capacity: the epsilon/10 shrink, and
    # more if rounding still overflows
    x = np.maximum(res.x, 0.0)
    X, xs = dyadic_ints(x[:-1])
    arc_flow = [sum(X[j:j + nk]) for j in range(0, nf, nk)]
    used = list(map(add, arc_flow[:ne], arc_flow[ne:]))
    scale = 1 - eps / 10
    # one int comparison per merged edge; the rescue runs when the solver overfills
    # a capacity row by more than the epsilon/10 shrink, which HiGHS's absolute
    # primal feasibility tolerance (1e-7) allows once epsilon/10 is smaller
    if any(u * cs * scale.numerator > c * xs * scale.denominator for u, c in zip(used, caps)):
        scale /= max(Fraction(u * cs, c * xs) for u, c in zip(used, caps)) * scale
    lam = Fraction(x[-1]) * scale
    sn, sd = scale.numerator, scale.denominator
    load_nums, load_dens = [0] * len(g.edges), [1] * len(g.edges)
    for i, m, ci in zip(real.tolist(), slot.tolist(), cint):
        load_nums[i], load_dens[i] = used[m] * ci * sn, caps[m]
    routed = {}
    for k, (_, sinks) in enumerate(cover):
        for pair, w, _ in sinks:
            wi = vindex[g.terminals[w]]
            net = (sum(X[j * nk + k] for j in np.flatnonzero(heads == wi).tolist())
                   - sum(X[j * nk + k] for j in np.flatnonzero(tails == wi).tolist()))
            routed[pair] = Fraction(net * sn, xs * sd)
    return FlowResult(lam=lam, congestion=1 / lam, routed=routed, load_nums=load_nums,
                      load_dens=load_dens, load_scale=xs * sd)


def exact_single_commodity(g: TerminalGraph, s_name: str, t_name: str) -> Fraction:
    """Exact undirected max-flow value between two terminals (augmenting paths)."""
    if s_name not in g.terminals or t_name not in g.terminals:
        raise FlowError("unknown terminal")
    s, t = g.terminals[s_name], g.terminals[t_name]
    if s == t:
        raise FlowError("source equals sink")
    # residual arcs: each undirected edge contributes capacity c in both directions
    cap: dict[tuple, Fraction] = {}
    adj: dict[object, list] = {v: [] for v in g.vertices}
    for i, (u, v, c, _) in enumerate(g.edges):
        for a, b in ((u, v), (v, u)):
            key = (i, a)
            cap[key] = cap.get(key, Fraction(0)) + c
        adj[u].append((v, (i, u), (i, v)))
        adj[v].append((u, (i, v), (i, u)))
    total = Fraction(0)
    while True:
        prev = {s: None}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for w, fwd, back in adj[u]:
                if w not in prev and cap[fwd] > 0:
                    prev[w] = (u, fwd, back)
                    queue.append(w)
        if t not in prev:
            return total
        bottleneck = None
        node = t
        while prev[node] is not None:
            _, fwd, _ = prev[node]
            if bottleneck is None or cap[fwd] < bottleneck:
                bottleneck = cap[fwd]
            node = prev[node][0]
        node = t
        while prev[node] is not None:
            u, fwd, back = prev[node]
            cap[fwd] -= bottleneck
            cap[back] += bottleneck
            node = u
        total += bottleneck


@dataclass
class DualReport:
    value: Fraction
    feasible: bool
    violations: list[str]


def dual_value(g: TerminalGraph, lengths: Sequence, deltas: Mapping[tuple[str, str], object],
               demand: Demand | None = None) -> DualReport:
    """Exact value and feasibility of a congestion-LP dual candidate.

    `lengths` assigns a nonnegative rational to each edge (in edge order);
    feasibility requires every terminal pair's shortest path under those
    lengths to be at least its delta, plus the normalization
    sum(delta * demand) >= 1 when a demand is supplied.  A delta on an
    unknown terminal, or a demand pair without a delta, raises `FlowError`.
    """
    lens = [as_fraction(x) for x in lengths]
    if len(lens) != len(g.edges):
        raise FlowError(f"expected {len(g.edges)} lengths, got {len(lens)}")
    if any(x < 0 for x in lens):
        raise FlowError("negative edge length")
    norm = pair_table(deltas)
    for t, u in norm:
        if t not in g.terminals or u not in g.terminals:
            raise FlowError(f"delta names unknown terminal in ({t}, {u})")
    if demand is not None:
        for t, u in demand.entries:
            if (t, u) not in norm:
                raise FlowError(f"demand pair ({t}, {u}) has no delta")
    value = sum((e.capacity * l for e, l in zip(g.edges, lens)), Fraction(0))
    reweighted = TerminalGraph(
        vertices=list(g.vertices),
        edges=[(e.u, e.v, e.capacity, l) for e, l in zip(g.edges, lens)],
        terminals=dict(g.terminals))
    violations = []
    by_source: dict[str, dict] = {}
    for (t, u), target in sorted(norm.items()):
        if t not in by_source:
            by_source[t] = shortest_distances(reweighted, g.terminals[t])
        dist = by_source[t].get(g.terminals[u])
        if dist is None:
            violations.append(f"pair ({t}, {u}): disconnected")
        elif dist < target:
            violations.append(f"pair ({t}, {u}): shortest path {dist} < delta {target}")
    if demand is not None:
        tot = demand.total_weighted(norm)
        if tot < 1:
            violations.append(f"normalization: sum(delta * demand) = {tot} < 1")
    return DualReport(value=value, feasible=not violations, violations=violations)


@dataclass
class QualityReport:
    ratios: list[Fraction]       # cong_G / cong_H per demand
    max_ratio: Fraction
    min_ratio: Fraction
    epsilon: Fraction

    def to_json_dict(self) -> dict:
        return {
            "ratios": [str(r) for r in self.ratios],
            "max_ratio": str(self.max_ratio),
            "min_ratio": str(self.min_ratio),
            "epsilon": str(self.epsilon),
            "envelope_factor": str((1 + self.epsilon) / (1 - self.epsilon)),
        }


def quality_ratio(g: TerminalGraph, h: TerminalGraph, demands: Sequence[Demand],
                  epsilon) -> QualityReport:
    """Congestion ratios cong_G / cong_H over a list of demands.

    Each ratio carries the solver's +-epsilon envelope; both graphs must name
    the same terminals.
    """
    if set(g.terminals) != set(h.terminals):
        raise FlowError("graphs disagree on terminal names")
    if not demands:
        raise FlowError("need at least one demand")
    eps = as_fraction(epsilon)
    ratios = []
    for dem in demands:
        lam_g = max_concurrent_flow(g, dem, eps).lam
        lam_h = max_concurrent_flow(h, dem, eps).lam
        ratios.append(lam_h / lam_g)  # cong_G / cong_H
    return QualityReport(ratios=ratios, max_ratio=max(ratios),
                         min_ratio=min(ratios), epsilon=eps)
