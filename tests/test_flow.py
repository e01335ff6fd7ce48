from fractions import Fraction as F
from itertools import combinations

import pytest

from spanflow.flow import (Demand, FlowError, dual_value, exact_single_commodity,
                           max_concurrent_flow, quality_ratio)
from spanflow.graphs import TerminalGraph, shortest_distances

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


def test_connectivity_one_search_per_source(monkeypatch):
    import spanflow.flow as flow
    searches = []
    real = flow._reachable
    monkeypatch.setattr(flow, "_reachable",
                        lambda adj, src: searches.append(src) or real(adj, src))
    g = TerminalGraph(vertices=["s", "t", "u", "w"],
                      edges=[("s", "t", F(1), F(1)), ("t", "u", F(1), F(1))],
                      terminals={"s": "s", "t": "t", "u": "u", "w": "w"})
    max_concurrent_flow(g, Demand({("s", "t"): F(1), ("s", "u"): F(1)}), EPS)
    assert searches == ["s"]
    with pytest.raises(FlowError, match="terminals s and w are disconnected"):
        max_concurrent_flow(g, Demand({("s", "t"): F(1), ("s", "w"): F(1)}), EPS)


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
