"""Multicommodity-flow congestion machinery.

The concurrent-flow solver maximizes the fraction lambda of a demand that can
be routed within capacities.  It solves an edge-flow LP in floating point
(HiGHS via scipy): parallel edges merged into one arc pair of their summed
capacity, self-loops dropped, one commodity per source of a greedy cover of
the demand pairs, and the columns arc-major (commodity k on arc a is column
a * nk + k, lambda last).  What it reports is exact where stated:

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
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .graphs import TerminalGraph, shortest_distances
from .metric import as_fraction, pair_key
from .tightspan import dyadic_ints, lattice_ints


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
    lam: Fraction
    congestion: Fraction
    loads: list[Fraction]        # per edge, each exactly <= its capacity
    routed: dict[tuple[str, str], Fraction]   # per demand pair, net inflow at its sink
    epsilon: Fraction
    iterations: int


def _reachable(adj, src) -> set:
    seen = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w, _ in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


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
    eps = as_fraction(epsilon)
    if not (0 < eps <= Fraction(1, 2)):
        raise FlowError("epsilon must lie in (0, 1/2]")
    pairs = demand.pairs()
    if not pairs:
        raise FlowError("demand is empty")
    adj = g.adjacency()
    reach: dict = {}   # source vertex -> vertices reachable from it
    for t, u, _ in pairs:
        if t not in g.terminals or u not in g.terminals:
            raise FlowError(f"demand names unknown terminal in ({t}, {u})")
        src = g.terminals[t]
        if src not in reach:
            reach[src] = _reachable(adj, src)
        if g.terminals[u] not in reach[src]:
            raise FlowError(f"terminals {t} and {u} are disconnected")

    vindex = {v: i for i, v in enumerate(g.vertices)}
    nv = len(g.vertices)
    ends = np.array([(vindex[e.u], vindex[e.v]) for e in g.edges],
                    dtype=np.int64).reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    real = np.flatnonzero(lo != hi)   # self-loops carry no flow
    keys, slot = np.unique(lo[real] * nv + hi[real], return_inverse=True)
    slot = slot.ravel()
    ne = len(keys)
    # capacities as ints on their common denominator cs, merged per edge
    (cint,), cs = lattice_ints([[g.edges[i].capacity for i in real.tolist()]])
    caps = [0] * ne
    for m, ci in zip(slot.tolist(), cint):
        caps[m] += ci
    # arc j < ne runs a -> b on merged edge j, arc ne + j runs back
    a, b = keys // nv, keys % nv
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
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.zeros(a_eq.shape[0]),
                  bounds=(0, None), method="highs")
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
    loads = [Fraction(0)] * len(g.edges)
    for i, m, ci in zip(real.tolist(), slot.tolist(), cint):
        loads[i] = Fraction(used[m] * ci * sn, caps[m] * xs * sd)
    routed = {}
    for k, (_, sinks) in enumerate(cover):
        for pair, w, _ in sinks:
            wi = vindex[g.terminals[w]]
            net = (sum(X[j * nk + k] for j in np.flatnonzero(heads == wi).tolist())
                   - sum(X[j * nk + k] for j in np.flatnonzero(tails == wi).tolist()))
            routed[pair] = Fraction(net * sn, xs * sd)
    iterations = int(getattr(res, "nit", 0))
    congestion = Fraction(1) / lam if lam > 0 else Fraction(0)
    return FlowResult(lam=lam, congestion=congestion, loads=loads,
                      routed=routed, epsilon=eps, iterations=iterations)


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
    sum(delta * demand) >= 1 when a demand is supplied.
    """
    lens = [as_fraction(x) for x in lengths]
    if len(lens) != len(g.edges):
        raise FlowError(f"expected {len(g.edges)} lengths, got {len(lens)}")
    if any(x < 0 for x in lens):
        raise FlowError("negative edge length")
    value = sum((e.capacity * l for e, l in zip(g.edges, lens)), Fraction(0))
    reweighted = TerminalGraph(
        vertices=list(g.vertices),
        edges=[(e.u, e.v, e.capacity, l) for e, l in zip(g.edges, lens)],
        terminals=dict(g.terminals))
    norm = {pair_key(t, u): as_fraction(v) for (t, u), v in deltas.items()}
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
