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

numpy, scipy's HiGHS bindings and `scipy.sparse` load on the first LP, not
at import: importing them costs more than the rest of the package, and the
geometry, decomposition and hard-instance code never solves an LP.
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
    epsilon: Fraction
    iterations: int
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
    """scipy's HiGHS bindings and the options `scipy.optimize.linprog(method="highs")`
    sets, imported and built on the first LP, once per process."""
    from scipy.optimize._highspy import _core as highs
    options = highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = 0   # kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = 1    # kSimplexStrategyDual
    return highs, options


def linprog(c, *, A_ub, b_ub, A_eq, b_eq) -> LPResult:
    """min c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq and x >= 0, by one
    HiGHS run.

    The part of `scipy.optimize.linprog(..., bounds=(0, None), method="highs")`
    that `max_concurrent_flow` uses: the same stacked CSC matrix, row and column
    bounds and options (presolve, dual simplex, no output), so the same x and
    iteration count; it builds no marginals and makes no residual check.
    `A_ub` and `A_eq` are COO matrices with the same number of columns.
    """
    import numpy as np
    from scipy.sparse import csc_array
    highs, options = _highs()
    # the stacked matrix in one step: A_eq's rows follow A_ub's
    a = csc_array((np.concatenate([A_ub.data, A_eq.data]),
                   (np.concatenate([A_ub.row, A_eq.row + A_ub.shape[0]]),
                    np.concatenate([A_ub.col, A_eq.col]))),
                  shape=(A_ub.shape[0] + A_eq.shape[0], A_ub.shape[1]))
    nrow, ncol = a.shape
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = ncol
    lp.num_row_ = lp.a_matrix_.num_row_ = nrow
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(ncol)
    lp.col_upper_ = np.full(ncol, highs.kHighsInf)
    lp.row_lower_ = np.concatenate([np.full(len(b_ub), -highs.kHighsInf), b_eq])
    lp.row_upper_ = np.concatenate([b_ub, b_eq])
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    text = solver.modelStatusToString(status)
    if status != highs.HighsModelStatus.kOptimal:
        primal = solver.solutionStatusToString(info.primal_solution_status)
        return LPResult(None, False, f"model_status is {text}; primal_status is {primal}", nit)
    return LPResult(np.array(solver.getSolution().col_value), True, text, nit)


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
    accuracy.  A non-finite solver value raises `FlowError`.
    """
    import numpy as np
    from scipy.sparse import coo_matrix, csr_matrix
    from scipy.sparse.csgraph import connected_components
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
    # terminals share a (weak) component of the merged edges, whose CSR rows
    # the sorted keys give directly
    a, b = keys // nv, keys % nv
    csr = csr_matrix((np.ones(ne), b, np.searchsorted(a, np.arange(nv + 1))), shape=(nv, nv))
    _, comp = connected_components(csr)
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
    narc = 2 * ne

    cover = _source_cover(pairs)
    nk = len(cover)
    nf = narc * nk
    nvar = nf + 1   # f[arc, k] in column arc * nk + k, then lambda
    lam_col = nf
    # equality rows (k, v): inflow - outflow - lambda * d_k(v) = 0, except at
    # the source, whose row the others imply
    fcols = np.arange(nf)
    arc, base = fcols // nk, fcols % nk * nv
    rows = [base + heads[arc], base + tails[arc]]
    cols = [fcols, fcols]
    vals = [np.ones(nf), -np.ones(nf)]
    sink_rows = [k * nv + vindex[g.terminals[w]]
                 for k, (_, sinks) in enumerate(cover) for _, w, _ in sinks]
    rows.append(np.array(sink_rows, dtype=np.int64))
    cols.append(np.full(len(sink_rows), lam_col))
    vals.append(np.array([-float(d) for _, sinks in cover for _, _, d in sinks]))
    live = np.ones(nk * nv, dtype=bool)
    live[[k * nv + vindex[g.terminals[s]] for k, (s, _) in enumerate(cover)]] = False
    row_id = np.cumsum(live) - 1
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    keep = live[rows]
    a_eq = coo_matrix((vals[keep], (row_id[rows[keep]], cols[keep])),
                      shape=(int(live.sum()), nvar))
    a_ub = coo_matrix((np.ones(nf), (arc % ne, fcols)), shape=(ne, nvar))
    b_ub = [c / cs for c in caps]   # int true division rounds correctly

    c = np.zeros(nvar)
    c[lam_col] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.zeros(a_eq.shape[0]))
    if not res.success:
        raise FlowError(f"LP solver failed: {res.message}")
    if not np.isfinite(res.x).all():
        raise FlowError("LP solver returned a non-finite value")

    # the clipped float flow exactly, as ints X on the power-of-two scale xs:
    # merged edge m carries used[m] / xs against capacity caps[m] / cs.  One
    # exact scale keeps every load in capacity: the epsilon/10 shrink, and
    # more if rounding still overflows
    x = np.maximum(res.x, 0.0)
    X, xs = dyadic_ints(x[:-1])
    arc_flow = [sum(X[j:j + nk]) for j in range(0, nf, nk)]
    used = list(map(add, arc_flow[:ne], arc_flow[ne:]))
    scale = 1 - eps / 10
    # one int comparison per merged edge; the shrink margin makes the rescue unreachable
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
    congestion = Fraction(1) / lam if lam > 0 else Fraction(0)
    return FlowResult(lam=lam, congestion=congestion, routed=routed, epsilon=eps,
                      iterations=res.nit, load_nums=load_nums, load_dens=load_dens,
                      load_scale=xs * sd)


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
