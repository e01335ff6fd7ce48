"""Multicommodity-flow congestion machinery.

The concurrent-flow solver maximizes the fraction lambda of a demand that can
be routed within capacities.  It solves the polynomial-size edge-flow LP in
floating point (HiGHS via scipy) and then rescales the returned flow exactly
in rational arithmetic so that the reported lambda is certified achievable:
the reported flow respects every capacity and routes at least
lambda * demand * (1 - epsilon) per pair, and lambda never exceeds the true
optimum.  The single-commodity oracle and the dual checker are exact and
independent of that code path.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .graphs import TerminalGraph, shortest_distances
from .metric import as_fraction


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
            key = (t, u) if t <= u else (u, t)
            norm[key] = norm.get(key, Fraction(0)) + val
        self.entries = norm

    def pairs(self) -> list[tuple[str, str, Fraction]]:
        return [(t, u, v) for (t, u), v in sorted(self.entries.items()) if v > 0]

    def total_weighted(self, values: Mapping[tuple[str, str], Fraction]) -> Fraction:
        tot = Fraction(0)
        for (t, u), d in self.entries.items():
            key = (t, u) if (t, u) in values else (u, t)
            tot += d * values[key]
        return tot


@dataclass
class FlowResult:
    lam: Fraction
    congestion: Fraction
    loads: list[Fraction]        # per edge, for the flow routing lam * demand
    routed: dict[tuple[str, str], Fraction]
    epsilon: Fraction
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "lambda": str(self.lam),
            "congestion": str(self.congestion),
            "epsilon": str(self.epsilon),
            "iterations": self.iterations,
            "loads": [str(x) for x in self.loads],
        }


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


def max_concurrent_flow(g: TerminalGraph, demand: Demand, epsilon) -> FlowResult:
    """Approximate maximum concurrent flow with a certified one-sided answer.

    Returns lambda in [(1 - epsilon) * opt, opt].  The solver's float answer
    is shrunk by epsilon/10 and its flow is rationalized and clipped, so the
    reported value is witnessed by an exactly feasible flow.
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
    nv, ne, nq = len(g.vertices), len(g.edges), len(pairs)
    # variables: f[e, dir, q] (2 * ne * nq) then lambda
    nvar = 2 * ne * nq + 1

    def var(e, d, q):
        return (e * 2 + d) * nq + q

    rows, cols, vals = [], [], []
    b_eq = []
    row = 0
    for q, (t, u, d) in enumerate(pairs):
        s, x = vindex[g.terminals[t]], vindex[g.terminals[u]]
        for vi in range(nv):
            if vi == x:
                continue  # sink conservation is implied
            for e, (a, bb, _, _) in enumerate(g.edges):
                ai, bi = vindex[a], vindex[bb]
                if ai == vi or bi == vi:
                    # direction 0: a -> b, direction 1: b -> a
                    for dr in range(2):
                        out = (ai == vi) == (dr == 0)
                        rows.append(row)
                        cols.append(var(e, dr, q))
                        vals.append(1.0 if out else -1.0)
            if vi == s:
                rows.append(row)
                cols.append(nvar - 1)
                vals.append(-float(d))
            b_eq.append(0.0)
            row += 1
    a_eq = coo_matrix((vals, (rows, cols)), shape=(row, nvar))

    rows, cols, vals = [], [], []
    for e in range(ne):
        for dr in range(2):
            for q in range(nq):
                rows.append(e)
                cols.append(var(e, dr, q))
                vals.append(1.0)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(ne, nvar))
    b_ub = [float(g.edges[e].capacity) for e in range(ne)]

    c = [0.0] * nvar
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * nvar, method="highs")
    if not res.success:
        raise FlowError(f"LP solver failed: {res.message}")

    shrink = 1 - eps / 10
    flows = [max(Fraction(x), Fraction(0)) * shrink for x in res.x[:-1]]
    lam = Fraction(res.x[-1]) * shrink
    loads = [sum(flows[var(e, dr, q)] for dr in range(2) for q in range(nq))
             for e in range(ne)]
    worst = max((load / g.edges[e].capacity for e, load in enumerate(loads)),
                default=Fraction(0))
    if worst > 1:  # exact rescue; the shrink margin makes this unreachable
        flows = [f / worst for f in flows]
        lam /= worst
        loads = [x / worst for x in loads]
    routed = {}
    for q, (t, u, d) in enumerate(pairs):
        s = vindex[g.terminals[t]]
        net = Fraction(0)
        for e, (a, bb, _, _) in enumerate(g.edges):
            ai, bi = vindex[a], vindex[bb]
            if ai == s:
                net += flows[var(e, 0, q)] - flows[var(e, 1, q)]
            if bi == s:
                net += flows[var(e, 1, q)] - flows[var(e, 0, q)]
        routed[(t, u)] = net
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

    def to_json_dict(self) -> dict:
        return {"value": str(self.value), "feasible": self.feasible,
                "violations": self.violations}


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
    norm = {}
    for (t, u), v in deltas.items():
        key = (t, u) if t <= u else (u, t)
        norm[key] = as_fraction(v)
    violations = []
    adj = reweighted.adjacency()
    by_source: dict[str, dict] = {}
    for (t, u), target in sorted(norm.items()):
        if t not in by_source:
            by_source[t] = shortest_distances(reweighted, g.terminals[t], adj)
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
