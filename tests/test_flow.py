from fractions import Fraction as F
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from spanflow.flow import (Demand, FlowError, dual_value, exact_single_commodity,
                           linprog, max_concurrent_flow, quality_ratio)
from spanflow.graphs import TerminalGraph, shortest_distances
from spanflow.metric import MetricError

from conftest import rand_connected_graph

EPS = F(1, 100)


def single_edge(cap=F(1)):
    return TerminalGraph(vertices=["s", "t"], edges=[("s", "t", cap, F(1))],
                         terminals={"s": "s", "t": "t"})


def k4():
    verts = list("wxyz")
    edges = [(a, b, F(1), F(1)) for a, b in combinations(verts, 2)]
    return TerminalGraph(vertices=verts, edges=edges, terminals={"w": "w", "x": "x"})


def test_single_edge_unit_demand():
    r = max_concurrent_flow(single_edge(), Demand({("s", "t"): F(1)}), EPS)
    assert (1 - EPS) <= r.lam <= 1
    assert r.congestion == 1 / r.lam


def test_single_edge_double_demand():
    r = max_concurrent_flow(single_edge(), Demand({("s", "t"): F(2)}), EPS)
    assert (1 - EPS) / 2 <= r.lam <= F(1, 2)


def test_k4_matches_exact_oracle():
    g = k4()
    assert exact_single_commodity(g, "w", "x") == 3
    r = max_concurrent_flow(g, Demand({("w", "x"): F(1)}), EPS)
    assert 3 * (1 - EPS) <= r.lam <= 3


def test_flow_result_invariants():
    g = k4()
    r = max_concurrent_flow(g, Demand({("w", "x"): F(1)}), EPS)
    for load, e in zip(r.loads, g.edges):
        assert load <= e.capacity
    assert r.routed[("w", "x")] >= r.lam * (1 - EPS)


def test_oracle_trivial_cases():
    assert exact_single_commodity(single_edge(F(7, 3)), "s", "t") == F(7, 3)
    g = TerminalGraph(vertices=["s", "u", "v", "t"],
                      edges=[("s", "u", F(1), F(1)), ("u", "t", F(1), F(1)),
                             ("s", "v", F(2), F(1)), ("v", "t", F(2), F(1))],
                      terminals={"s": "s", "t": "t"})
    assert exact_single_commodity(g, "s", "t") == 3


def test_disconnected_demand_is_error():
    g = TerminalGraph(vertices=["s", "t"], edges=[], terminals={"s": "s", "t": "t"})
    with pytest.raises(FlowError):
        max_concurrent_flow(g, Demand({("s", "t"): F(1)}), EPS)


def test_connectivity_reads_the_merged_edges_not_the_lengths():
    g = TerminalGraph(vertices=["s", "t", "u", "w"],
                      edges=[("s", "t", F(1), F(1)), ("t", "u", F(1), F(1))],
                      terminals={"s": "s", "t": "t", "u": "u", "w": "w"})
    max_concurrent_flow(g, Demand({("s", "t"): F(1), ("s", "u"): F(1)}), EPS)
    assert g._lengths is None   # no length table was built
    with pytest.raises(FlowError, match="terminals s and w are disconnected"):
        max_concurrent_flow(g, Demand({("s", "t"): F(1), ("s", "w"): F(1)}), EPS)
    with pytest.raises(FlowError, match="unknown terminal"):
        max_concurrent_flow(g, Demand({("s", "t"): F(1), ("t", "z"): F(1)}), EPS)


def test_connectivity_matches_a_bfs_oracle(rng):
    # random multigraphs, often disconnected, with parallel edges, self-loops
    # and isolated vertices: the first disconnected demand pair is the one raised
    seen = set()
    for _ in range(40):
        vs = [f"v{i}" for i in range(rng.randint(2, 9))]
        edges = []
        for _ in range(rng.randint(0, len(vs) + 2)):
            u, v = rng.choice(vs), rng.choice(vs)   # u == v: a self-loop
            edges += [(u, v, F(rng.randint(1, 4)), F(1))] * rng.randint(1, 2)
        names = [f"t{i}" for i in range(rng.randint(2, min(len(vs), 5)))]
        terminals = dict(zip(names, rng.sample(vs, len(names))))
        g = TerminalGraph(vertices=vs, edges=edges, terminals=terminals)
        adj = {v: set() for v in vs}
        for u, v, _, _ in edges:
            adj[u].add(v)
            adj[v].add(u)

        def reach(s):
            seen_v, todo = {s}, [s]
            while todo:
                for w in adj[todo.pop()] - seen_v:
                    seen_v.add(w)
                    todo.append(w)
            return seen_v
        pairs = [pair for pair in combinations(names, 2) if rng.random() < 0.7] or [tuple(names[:2])]
        demand = Demand({pair: F(1) for pair in pairs})
        bad = next(((t, u) for t, u, _ in demand.pairs()
                    if terminals[u] not in reach(terminals[t])), None)
        seen.add(bad is None)
        if bad is None:
            assert max_concurrent_flow(g, demand, EPS).lam > 0
        else:
            with pytest.raises(FlowError, match=f"terminals {bad[0]} and {bad[1]} are disconnected$"):
                max_concurrent_flow(g, demand, EPS)
    assert seen == {True, False}


def test_oracle_agreement_random(rng):
    for _ in range(15):
        g = rand_connected_graph(rng, rng.randint(4, 7), rng.randint(2, 6))
        d = F(rng.randint(1, 5))
        lam_star = exact_single_commodity(g, "s", "t") / d
        r = max_concurrent_flow(g, Demand({("s", "t"): d}), EPS)
        assert lam_star * (1 - EPS) <= r.lam <= lam_star


def test_capacity_scaling(rng):
    g = rand_connected_graph(rng, 6, 5)
    dem = Demand({("s", "t"): F(3, 2)})
    r1 = max_concurrent_flow(g, dem, EPS)
    scaled = TerminalGraph(vertices=g.vertices,
                           edges=[(e.u, e.v, 5 * e.capacity, e.length)
                                  for e in g.edges],
                           terminals=dict(g.terminals))
    r2 = max_concurrent_flow(scaled, dem, EPS)
    lam_star = exact_single_commodity(g, "s", "t") / F(3, 2)
    assert lam_star * (1 - EPS) <= r1.lam <= lam_star
    assert 5 * lam_star * (1 - EPS) <= r2.lam <= 5 * lam_star


def test_dual_value_examples():
    g = k4()
    lengths = [e.length for e in g.edges]
    sp = shortest_distances(g, "w")
    report = dual_value(g, lengths, {("w", "x"): sp["x"]})
    assert report.feasible and report.value == 6
    report2 = dual_value(g, lengths, {("w", "x"): sp["x"] + 1})
    assert not report2.feasible
    assert any("(w, x)" in v for v in report2.violations)
    doubled = dual_value(g, [2 * l for l in lengths], {("w", "x"): 2 * sp["x"]})
    assert doubled.feasible and doubled.value == 12


def test_dual_normalization_check():
    g = single_edge()
    dem = Demand({("s", "t"): F(1, 2)})
    rep = dual_value(g, [F(1)], {("s", "t"): F(1)}, demand=dem)
    assert not rep.feasible  # 1/2 * 1 < 1
    rep2 = dual_value(g, [F(2)], {("s", "t"): F(2)}, demand=dem)
    assert rep2.feasible


def test_dual_value_rejects_a_pair_given_two_values():
    g = single_edge()
    with pytest.raises(MetricError, match="conflicting values"):
        dual_value(g, [F(1)], {("s", "t"): F(1), ("t", "s"): F(2)})
    rep = dual_value(g, [F(1)], {("s", "t"): F(1), ("t", "s"): "1"})
    assert rep.feasible and rep.value == 1


def test_dual_value_rejects_unknown_terminals_and_uncovered_demand():
    g = single_edge()
    for deltas in ({("s", "t"): F(1), ("x", "s"): F(1)}, {("s", "t"): F(1), ("t", "x"): F(1)}):
        with pytest.raises(FlowError, match=r"delta names unknown terminal in \(\w, x\)"):
            dual_value(g, [F(1)], deltas)
    dem = Demand({("s", "t"): F(1), ("q", "s"): F(1)})
    with pytest.raises(FlowError, match=r"demand pair \(q, s\) has no delta"):
        dual_value(g, [F(1)], {("s", "t"): F(1)}, demand=dem)


def test_weak_duality(rng):
    for _ in range(10):
        g = rand_connected_graph(rng, 6, 5)
        dem = Demand({("s", "t"): F(2)})
        r = max_concurrent_flow(g, dem, EPS)
        sp = shortest_distances(g, g.terminals["s"])
        delta = sp[g.terminals["t"]]
        scale = 1 / (delta * 2)  # makes sum(delta * demand) == 1
        rep = dual_value(g, [e.length * scale for e in g.edges],
                         {("s", "t"): delta * scale}, demand=dem)
        assert rep.feasible
        assert rep.value >= r.lam  # weak duality against the certified primal


def test_two_commodities_share_a_bottleneck():
    # s--m (cap 2) carries both commodities; m--t and m--u are wide.
    g = TerminalGraph(vertices=["s", "m", "t", "u"],
                      edges=[("s", "m", F(2), F(1)), ("m", "t", F(10), F(1)),
                             ("m", "u", F(10), F(1))],
                      terminals={"s": "s", "t": "t", "u": "u"})
    dem = Demand({("s", "t"): F(1), ("s", "u"): F(3)})
    r = max_concurrent_flow(g, dem, EPS)
    opt = F(1, 2)  # both commodities cross s--m: lambda * (1 + 3) <= 2
    assert opt * (1 - EPS) <= r.lam <= opt
    assert r.routed[("s", "t")] >= r.lam * (1 - EPS)
    assert r.routed[("s", "u")] >= 3 * r.lam * (1 - EPS)


def test_quality_ratio_identity():
    g = k4()
    q = quality_ratio(g, g, [Demand({("w", "x"): F(1)})], EPS)
    env = (1 + EPS) / (1 - EPS)
    assert 1 / env <= q.min_ratio <= q.max_ratio <= env


def test_quality_ratio_pendant_contraction():
    # contracting a leaf hanging off a terminal cannot change terminal flows
    g = TerminalGraph(vertices=["s", "t", "leaf"],
                      edges=[("s", "t", F(2), F(1)), ("s", "leaf", F(1), F(1))],
                      terminals={"s": "s", "t": "t"})
    h = TerminalGraph(vertices=["s", "t"], edges=[("s", "t", F(2), F(1))],
                      terminals={"s": "s", "t": "t"})
    q = quality_ratio(g, h, [Demand({("s", "t"): F(1)})], EPS)
    env = (1 + EPS) / (1 - EPS)
    assert 1 / env <= q.min_ratio <= q.max_ratio <= env


def test_quality_terminal_mismatch():
    g = k4()
    h = TerminalGraph(vertices=["w", "q"], edges=[("w", "q", F(1), F(1))],
                      terminals={"w": "w", "q": "q"})
    with pytest.raises(FlowError):
        quality_ratio(g, h, [Demand({("w", "x"): F(1)})], EPS)


def test_determinism(rng):
    g = rand_connected_graph(rng, 7, 6)
    dem = Demand({("s", "t"): F(2)})
    r1 = max_concurrent_flow(g, dem, EPS)
    r2 = max_concurrent_flow(g, dem, EPS)
    assert r1.lam == r2.lam and r1.loads == r2.loads


def test_self_loop_does_not_inflate_lambda():
    # a self-loop used to count only on the out side of its vertex's
    # conservation row, where it absorbed flow like a private sink
    g = TerminalGraph(vertices=["s", "m", "t"],
                      edges=[("s", "m", F(5), F(1)), ("m", "t", F(1), F(1)),
                             ("m", "m", F(100), F(1))],
                      terminals={"s": "s", "t": "t"})
    assert exact_single_commodity(g, "s", "t") == 1
    r = max_concurrent_flow(g, Demand({("s", "t"): F(1)}), EPS)
    assert 1 - EPS <= r.lam <= 1
    assert r.loads[2] == 0
    assert all(load <= e.capacity for load, e in zip(r.loads, g.edges))


def with_copies_and_loops(rng, g):
    """`g` plus parallel copies of random edges and a few self-loops."""
    edges = list(g.edges)
    for _ in range(rng.randint(1, 4)):
        e = rng.choice(g.edges)
        edges.append((e.v, e.u, F(rng.randint(1, 6), rng.randint(1, 3)), e.length))
    for _ in range(rng.randint(0, 2)):
        v = rng.choice(g.vertices)
        edges.append((v, v, F(rng.randint(1, 50)), F(1)))
    return TerminalGraph(vertices=g.vertices, edges=edges, terminals=dict(g.terminals))


def test_random_multigraphs_match_oracle(rng):
    for _ in range(15):
        g = with_copies_and_loops(rng, rand_connected_graph(rng, rng.randint(3, 7),
                                                            rng.randint(0, 5)))
        d = F(rng.randint(1, 4), rng.randint(1, 3))
        lam_star = exact_single_commodity(g, "s", "t") / d
        r = max_concurrent_flow(g, Demand({("s", "t"): d}), EPS)
        assert (1 - EPS) * lam_star <= r.lam <= lam_star
        assert all(load <= e.capacity for load, e in zip(r.loads, g.edges))
        assert all(load == 0 for load, e in zip(r.loads, g.edges) if e.u == e.v)


def two_hubs(bottleneck=((F(1), F(1)), (F(3, 2), F(2)))):
    # a, b hang off hub x, c, d off hub y; x--y is a bundle of parallel edges
    edges = [("a", "x", F(10), F(1)), ("b", "x", F(10), F(1)),
             ("y", "c", F(10), F(1)), ("y", "d", F(10), F(1))]
    edges += [("x", "y", cap, length) for cap, length in bottleneck]
    return TerminalGraph(vertices=list("abcdxy"), edges=edges,
                         terminals={t: t for t in "abcd"})


TWO_HUB_DEMAND = {("a", "c"): F(1), ("a", "d"): F(2), ("b", "c"): F(1), ("a", "b"): F(4)}


def test_multicommodity_shared_source_parallel_bottleneck():
    g = two_hubs()
    dem = Demand(dict(TWO_HUB_DEMAND))
    r = max_concurrent_flow(g, dem, EPS)
    opt = F(5, 8)   # a-c, a-d and b-c cross x--y: lambda * 4 <= 1 + 3/2
    assert (1 - EPS) * opt <= r.lam <= opt
    for (t, u), d in dem.entries.items():
        assert abs(r.routed[(t, u)] - r.lam * d) <= F(1, 10 ** 9) * d
    # weak duality with shortest-path lengths, normalized to sum(delta * d) = 1
    deltas = {}
    for (t, u) in dem.entries:
        deltas[(t, u)] = shortest_distances(g, t)[u]
    scale = 1 / dem.total_weighted(deltas)
    rep = dual_value(g, [e.length * scale for e in g.edges],
                     {k: v * scale for k, v in deltas.items()}, demand=dem)
    assert rep.feasible
    assert r.lam <= rep.value


def test_routed_is_net_inflow_at_each_sink():
    # u is a sink of s and also carries s's flow on to t
    g = TerminalGraph(vertices=["s", "u", "t"],
                      edges=[("s", "u", F(1), F(1)), ("u", "s", F(2), F(1)),
                             ("u", "t", F(1), F(1))],
                      terminals={"s": "s", "u": "u", "t": "t"})
    dem = Demand({("s", "u"): F(1), ("s", "t"): F(1)})
    r = max_concurrent_flow(g, dem, EPS)
    assert 1 - EPS <= r.lam <= 1
    for pair, d in dem.entries.items():
        assert abs(r.routed[pair] - r.lam * d) <= F(1, 10 ** 9)


def test_parallel_loads_split_by_capacity():
    g = two_hubs(((F(1), F(1)), (F(3, 2), F(2)), (F(1, 4), F(5))))
    r = max_concurrent_flow(g, Demand(dict(TWO_HUB_DEMAND)), EPS)
    bundle = [(load, e.capacity) for load, e in zip(r.loads, g.edges) if e.u == "x"]
    assert len(bundle) == 3
    assert len({load / cap for load, cap in bundle}) == 1
    assert all(load <= cap for load, cap in bundle)
    assert all(load <= e.capacity for load, e in zip(r.loads, g.edges))


def test_invariant_under_permutations():
    g = two_hubs(((F(1), F(1)), (F(3, 2), F(2)), (F(1, 4), F(5))))
    r = max_concurrent_flow(g, Demand(dict(TWO_HUB_DEMAND)), EPS)
    again = max_concurrent_flow(g, Demand(dict(TWO_HUB_DEMAND)), EPS)
    assert (again.lam, again.loads, again.routed) == (r.lam, r.loads, r.routed)
    swapped = Demand({(u, t): d for (t, u), d in reversed(TWO_HUB_DEMAND.items())})
    s = max_concurrent_flow(g, swapped, EPS)
    assert (s.lam, s.loads, s.routed) == (r.lam, r.loads, r.routed)
    order = [5, 0, 6, 3, 1, 4, 2]
    edges = [g.edges[i] for i in order]
    u, v, cap, length = edges[2]
    edges[2] = (v, u, cap, length)   # one bottleneck edge written as y--x
    shuffled = TerminalGraph(vertices=g.vertices, edges=edges, terminals=dict(g.terminals))
    p = max_concurrent_flow(shuffled, Demand(dict(TWO_HUB_DEMAND)), EPS)
    assert p.lam == r.lam and p.routed == r.routed
    assert p.loads == [r.loads[i] for i in order]


def test_source_cover_is_greedy_and_ordered():
    from spanflow.flow import _source_cover
    cover = _source_cover(Demand(dict(TWO_HUB_DEMAND)).pairs())
    assert [(src, [w for _, w, _ in sinks]) for src, sinks in cover] == \
        [("a", ["b", "c", "d"]), ("b", ["c"])]


def capture_linprog(monkeypatch):
    import spanflow.flow as flow
    calls = []
    real = flow.linprog

    def spy(c, **kwargs):
        calls.append((c, kwargs))
        return real(c, **kwargs)

    monkeypatch.setattr(flow, "linprog", spy)
    return calls


def test_lp_size_ave_instance(monkeypatch):
    from spanflow.hard6 import generate
    inst = generate(4, ave=True)
    calls = capture_linprog(monkeypatch)
    r = max_concurrent_flow(inst.graph, inst.ave.demand, EPS)
    (c, kw), = calls
    # 474 merged edges, two arcs each, 4 sources cover the 9 demand pairs
    ne, nk = 474, 4
    assert len(c) == 2 * ne * nk + 1 == 3793
    assert kw["A_ub"].shape == (ne, 3793)
    assert kw["A_eq"].shape == (nk * (len(inst.graph.vertices) - 1), 3793)
    # arc-major columns: flow column j is commodity j % nk on arc j // nk
    a_ub = kw["A_ub"].tocsc()
    assert a_ub.nnz == len(c) - 1
    for j in range(len(c) - 1):
        assert a_ub.indices[a_ub.indptr[j]:a_ub.indptr[j + 1]].tolist() == [(j // nk) % ne]
    assert a_ub.indptr[-1] == a_ub.indptr[-2]   # lambda has no capacity entry
    assert all(load <= e.capacity for load, e in zip(r.loads, inst.graph.edges))


def test_capacity_bounds_are_the_rounded_merged_capacities(monkeypatch):
    calls = capture_linprog(monkeypatch)
    # coprime denominators, parallel copies in both orientations, a self-loop
    g = TerminalGraph(vertices=["s", "m", "t"],
                      edges=[("s", "m", F(1, 3), F(1)), ("m", "s", F(2, 7), F(1)),
                             ("m", "t", F(5, 11), F(1)), ("t", "m", F(1, 13), F(2)),
                             ("m", "t", F(4, 17), F(1)), ("m", "m", F(1, 19), F(1)),
                             ("s", "t", F(3, 23), F(1))],
                      terminals={"s": "s", "t": "t"})
    max_concurrent_flow(g, Demand({("s", "t"): F(1)}), EPS)
    (_, kw), = calls
    merged = [F(1, 3) + F(2, 7), F(3, 23), F(5, 11) + F(1, 13) + F(4, 17)]  # (s,m) (s,t) (m,t)
    assert kw["b_ub"] == [float(cap) for cap in merged]


def fraction_reference(g, demand, epsilon, x):
    """`max_concurrent_flow`'s lambda, loads and routed flows from solver
    vector x (arc-major columns), in Fraction arithmetic: the reference for
    its int accounting."""
    from spanflow.flow import _source_cover
    eps = F(epsilon)
    vindex = {v: i for i, v in enumerate(g.vertices)}
    nv = len(g.vertices)
    ends = np.array([(vindex[e.u], vindex[e.v]) for e in g.edges],
                    dtype=np.int64).reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    real = np.flatnonzero(lo != hi)
    keys, slot = np.unique(lo[real] * nv + hi[real], return_inverse=True)
    slot = slot.ravel()
    ne = len(keys)
    caps = [F(0)] * ne
    for i, m in zip(real.tolist(), slot.tolist()):
        caps[m] += g.edges[i].capacity
    a, b = keys // nv, keys % nv
    tails, heads = np.concatenate([a, b]), np.concatenate([b, a])
    cover = _source_cover(demand.pairs())
    x = np.maximum(x, 0.0)
    flows = x[:-1].reshape(2 * ne, len(cover)).T   # flows[k, arc]
    per_edge = np.concatenate([flows[:, :ne], flows[:, ne:]]).T.tolist()
    fill = [sum(map(F, filter(None, row)), F(0)) / cap for row, cap in zip(per_edge, caps)]
    scale = 1 - eps / 10
    worst = max(fill) * scale
    if worst > 1:
        scale /= worst
    loads = [F(0)] * len(g.edges)
    for i, m in zip(real.tolist(), slot.tolist()):
        loads[i] = fill[m] * scale * g.edges[i].capacity
    routed = {}
    for k, (_, sinks) in enumerate(cover):
        for pair, w, _ in sinks:
            wi = vindex[g.terminals[w]]
            inflow = sum(map(F, flows[k, heads == wi].tolist()), F(0))
            outflow = sum(map(F, flows[k, tails == wi].tolist()), F(0))
            routed[pair] = (inflow - outflow) * scale
    return F(x[-1]) * scale, loads, routed


def test_int_accounting_matches_the_fraction_reference(monkeypatch, rng):
    import spanflow.flow as flow
    results = []
    real = flow.linprog

    def spy(c, **kwargs):
        results.append(real(c, **kwargs))
        return results[-1]

    monkeypatch.setattr(flow, "linprog", spy)
    names = ("s", "t", "u", "w")
    for _ in range(25):
        base = rand_connected_graph(rng, rng.randint(4, 8), rng.randint(0, 6), names)
        g = with_copies_and_loops(rng, base)
        pairs = [(t, u) for i, t in enumerate(names) for u in names[i + 1:]]
        dem = Demand({p: F(rng.randint(1, 9), rng.randint(1, 4))
                      for p in rng.sample(pairs, rng.randint(1, len(pairs)))})
        r = max_concurrent_flow(g, dem, EPS)
        lam, loads, routed = fraction_reference(g, dem, EPS, results[-1].x)
        assert (r.lam, r.loads, r.routed) == (lam, loads, routed)
        assert all(load <= e.capacity for load, e in zip(r.loads, g.edges))


def stub_linprog(monkeypatch, pattern, lam=0.5):
    """Make `flow.linprog` return `pattern` repeated over the flow columns."""
    import spanflow.flow as flow
    vectors = []

    def stub(c, **kwargs):
        x = np.resize(np.array(pattern, dtype=float), len(c))
        x[-1] = lam
        vectors.append(x)
        return SimpleNamespace(success=True, x=x, nit=0, message="")

    monkeypatch.setattr(flow, "linprog", stub)
    return vectors


@pytest.mark.parametrize("pattern", [
    [0.0, -0.0, 5e-324, 2.0 ** -1000, 1e300, -1e-17, -5e-324, 0.375, 3.0, -2.0 ** -60],
    [0.0, 0.375, 3.0, -1e-17],   # overflows by less than the capacity scale
])
def test_overfull_solver_values_are_rescued_exactly(monkeypatch, pattern):
    vectors = stub_linprog(monkeypatch, pattern)
    g = two_hubs(((F(1), F(1)), (F(3, 2), F(2)), (F(1, 4), F(5))))
    g = TerminalGraph(vertices=g.vertices,
                      edges=list(g.edges) + [("x", "x", F(7), F(1))],
                      terminals=dict(g.terminals))
    dem = Demand(dict(TWO_HUB_DEMAND))
    r = max_concurrent_flow(g, dem, EPS)
    lam, loads, routed = fraction_reference(g, dem, EPS, vectors[-1])
    assert (r.lam, r.loads, r.routed) == (lam, loads, routed)
    assert all(load <= e.capacity for load, e in zip(r.loads, g.edges))
    # the rescue scale fills the worst edge exactly, far below the eps/10 shrink
    assert any(load == e.capacity for load, e in zip(r.loads, g.edges))
    assert r.lam < F(1, 2) * (1 - EPS / 10)
    assert r.loads[-1] == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_solver_output_is_a_flow_error(monkeypatch, bad):
    stub_linprog(monkeypatch, [0.5, bad, 0.25])
    with pytest.raises(FlowError, match="non-finite"):
        max_concurrent_flow(two_hubs(), Demand(dict(TWO_HUB_DEMAND)), EPS)


def test_lp_size_ignores_edge_multiplicity(monkeypatch):
    calls = capture_linprog(monkeypatch)
    for copies in (1, 3, 8):
        g = TerminalGraph(vertices=["s", "m", "t"],
                          edges=[("s", "m", F(1), F(1))] * copies
                          + [("m", "t", F(2), F(1))] * copies,
                          terminals={"s": "s", "t": "t"})
        r = max_concurrent_flow(g, Demand({("s", "t"): F(1)}), EPS)
        assert (1 - EPS) * copies <= r.lam <= copies
    sizes = {(len(c), kw["A_eq"].shape, kw["A_eq"].nnz, kw["A_ub"].nnz) for c, kw in calls}
    assert len(calls) == 3 and len(sizes) == 1
    assert len(calls[0][0]) == 2 * 2 + 1


def test_direct_highs_call_matches_scipy_linprog(monkeypatch, rng):
    """`flow.linprog` gives `scipy.optimize.linprog(bounds=(0, None),
    method="highs")`'s x bit for bit, and its iteration count, on every LP
    `max_concurrent_flow` builds."""
    from scipy.optimize import linprog as scipy_linprog
    from spanflow.hard6 import generate
    calls = capture_linprog(monkeypatch)
    names = ("s", "t", "u", "w")
    pairs = [(t, u) for i, t in enumerate(names) for u in names[i + 1:]]
    for _ in range(12):
        base = rand_connected_graph(rng, rng.randint(4, 8), rng.randint(0, 6), names)
        dem = Demand({p: F(rng.randint(1, 9), rng.randint(1, 4))
                      for p in rng.sample(pairs, rng.randint(1, len(pairs)))})
        max_concurrent_flow(with_copies_and_loops(rng, base), dem, EPS)
    for gamma in (F(1, 10 ** 15), F(1, 1000)):
        inst = generate(3, ave=True, gamma=gamma)
        max_concurrent_flow(inst.graph, inst.ave.demand, EPS)
    assert len(calls) == 14
    for c, kw in calls:
        ours, ref = linprog(c, **kw), scipy_linprog(c, **kw, bounds=(0, None), method="highs")
        assert ours.success and ref.success
        assert ours.nit == ref.nit
        assert np.array_equal(ours.x, ref.x)


def test_infeasible_lp_reports_the_highs_status(monkeypatch):
    import spanflow.flow as flow
    from scipy.optimize import linprog as scipy_linprog
    from scipy.sparse import coo_matrix
    # x0 <= -1 against x >= 0
    c = np.array([1.0, 0.0])
    kw = dict(A_ub=coo_matrix(np.array([[1.0, 0.0]])), b_ub=[-1.0],
              A_eq=coo_matrix(np.array([[0.0, 1.0]])), b_eq=np.zeros(1))
    res, ref = linprog(c, **kw), scipy_linprog(c, **kw, bounds=(0, None), method="highs")
    assert not res.success and not ref.success and res.x is None
    assert "model_status is Infeasible" in res.message
    assert res.message in ref.message
    monkeypatch.setattr(flow, "linprog", lambda c, **kwargs: res)
    with pytest.raises(FlowError, match="LP solver failed: model_status is Infeasible"):
        max_concurrent_flow(single_edge(), Demand({("s", "t"): F(1)}), EPS)
