import heapq
import random
from fractions import Fraction as F
from math import lcm

import pytest

import spanflow.graphs
from spanflow.cli import main
from spanflow.graphs import (Edge, GraphError, TerminalGraph, distance_vectors, edge_distance_ints,
                             project_graph, shortest_distances, terminal_metric)
from spanflow.metric import is_valid_vector
from spanflow.tightspan import in_tight_span, project, ts_distance

from conftest import graph_from_metric, rand_connected_graph, rand_metric, rand_multigraph


def star():
    return TerminalGraph(
        vertices=["a", "b", "c", "o"],
        edges=[("a", "o", F(1), F(2)), ("b", "o", F(1), F(5)), ("c", "o", F(1), F(3))],
        terminals={"a": "a", "b": "b", "c": "c"})


def test_path_distance():
    g = TerminalGraph(vertices=["a", "u", "b"],
                      edges=[("a", "u", F(1), F(1)), ("u", "b", F(1), F(2))],
                      terminals={"a": "a", "b": "b"})
    assert shortest_distances(g, "a")["b"] == 3


def test_parallel_edges_take_shorter():
    g = TerminalGraph(vertices=["a", "b"],
                      edges=[("a", "b", F(1), F(5)), ("a", "b", F(1), F(2))],
                      terminals={"a": "a", "b": "b"})
    assert shortest_distances(g, "a")["b"] == 2


def test_triangle_shortcut():
    g = TerminalGraph(vertices=["a", "b", "c"],
                      edges=[("a", "b", F(1), F(1)), ("b", "c", F(1), F(1)),
                             ("a", "c", F(1), F(3))],
                      terminals={"a": "a", "c": "c"})
    assert shortest_distances(g, "a")["c"] == 2


def test_negative_length_rejected():
    with pytest.raises(GraphError):
        TerminalGraph(vertices=["a", "b"], edges=[("a", "b", F(1), F(-1))],
                      terminals={"a": "a", "b": "b"})


@pytest.mark.parametrize("make", [tuple, lambda e: Edge(*e)], ids=["tuple", "Edge"])
@pytest.mark.parametrize("edge, message", [
    (("a", "b", F(0), F(1)), "non-positive capacity"),
    (("a", "b", F(-2, 3), F(1)), "non-positive capacity"),
    (("a", "b", F(1), F(-1, 5)), "negative length"),
    (("a", "z", F(1), F(1)), "unknown vertex"),
])
def test_bad_edges_rejected(make, edge, message):
    with pytest.raises(GraphError, match=message):
        TerminalGraph(vertices=["a", "b"], edges=[make(edge)],
                      terminals={"a": "a", "b": "b"})


def test_unknown_vertices_rejected():
    with pytest.raises(GraphError, match="^terminal c assigned to unknown vertex z$"):
        TerminalGraph(vertices=["a", "b"], edges=[("a", "b", F(1), F(1))],
                      terminals={"a": "a", "c": "z"})
    with pytest.raises(GraphError, match="^unknown source vertex z$"):
        shortest_distances(star(), "z")


def test_edges_normalized_to_fraction_edges():
    exact = Edge("a", "b", F(3, 2), F(0))
    g = TerminalGraph(vertices=["a", "b"],
                      edges=[exact, ("b", "a", 2, "1/3"), Edge("a", "b", 5, "7")],
                      terminals={"a": "a", "b": "b"})
    assert g.edges[0] is exact
    assert g.edges[1:] == [Edge("b", "a", F(2), F(1, 3)), Edge("a", "b", F(5), F(7))]
    assert all(type(e) is Edge and type(e.capacity) is F and type(e.length) is F
               for e in g.edges)


def test_terminal_metric_star_matches_example1():
    m = terminal_metric(star())
    assert m.d("a", "b") == 7
    assert m.d("a", "c") == 5
    assert m.d("b", "c") == 8


def test_terminal_metric_single_edge():
    g = TerminalGraph(vertices=["a", "b"], edges=[("a", "b", F(1), F(9, 2))],
                      terminals={"a": "a", "b": "b"})
    assert terminal_metric(g).d("a", "b") == F(9, 2)


def test_terminal_metric_disconnected_names_pair():
    g = TerminalGraph(vertices=["a", "b"], edges=[], terminals={"a": "a", "b": "b"})
    with pytest.raises(GraphError, match="a.*b|b.*a"):
        terminal_metric(g)


def test_subdivision_invariance(rng):
    for _ in range(10):
        g = rand_connected_graph(rng, 6, 4, ("s", "t", "w"))
        m1 = terminal_metric(g)
        edges = list(g.edges)
        e = edges.pop(rng.randrange(len(edges)))
        cut = F(rng.randint(1, 3), 4)
        mid = "mid"
        edges.append((e.u, mid, e.capacity, e.length * cut))
        edges.append((mid, e.v, e.capacity, e.length * (1 - cut)))
        g2 = TerminalGraph(vertices=g.vertices + [mid], edges=edges,
                           terminals=dict(g.terminals))
        assert terminal_metric(g2).matrix() == m1.matrix()


def test_distance_vectors_star():
    g = star()
    vecs = distance_vectors(g)
    assert vecs["o"] == {"a": 2, "b": 5, "c": 3}
    m = terminal_metric(g)
    for t in g.terminals:
        assert vecs[g.terminals[t]] == m.row(t)
    for v in g.vertices:
        assert is_valid_vector(m, vecs[v])


def test_project_graph_star_center():
    emb = project_graph(star())
    assert emb.points["o"] == {"a": 2, "b": 5, "c": 3}


def test_project_graph_identity_when_all_terminals():
    g = TerminalGraph(vertices=["a", "b", "c"],
                      edges=[("a", "b", F(1), F(2)), ("b", "c", F(1), F(2)),
                             ("a", "c", F(1), F(3))],
                      terminals={"a": "a", "b": "b", "c": "c"})
    emb = project_graph(g)
    for t in "abc":
        assert emb.points[t] == emb.metric.row(t)


def test_projection_chain_inequality(rng):
    for _ in range(8):
        m = rand_metric(rng, 5)
        g = graph_from_metric(m, 5, rng)
        emb = project_graph(g)
        vecs = distance_vectors(g)
        for u, v, _, length in g.edges:
            d_uv = shortest_distances(g, u)[v]
            assert d_uv <= length
            assert ts_distance(vecs[u], vecs[v]) <= d_uv
            assert ts_distance(emb.points[u], emb.points[v]) <= ts_distance(vecs[u], vecs[v])
        for v in g.vertices:
            assert in_tight_span(emb.metric, emb.points[v])


def test_edge_distances_match_all_pairs():
    rng = random.Random(7331)
    for _ in range(25):
        g = rand_multigraph(rng, rng.randint(2, 5), rng.randint(3, 9))
        brute = {v: shortest_distances(g, v) for v in g.vertices}
        got = edge_distance_ints(g)
        assert got == [brute[u].ints.get(v) for u, v, _, _ in g.edges]
        scale = g.length_table().scale
        assert all(F(d, scale) <= e.length for d, e in zip(got, g.edges))
        assert any(u == v for u, v, _, _ in g.edges)
        assert any(u not in g.terminals and v not in g.terminals and u != v
                   for u, v, _, _ in g.edges)


def test_project_graph_matches_the_fraction_projection():
    # the int embedding against `project` of each distance vector, and its
    # int points against the Fraction ones on twice the length scale
    rng = random.Random(2718)
    graphs = [rand_multigraph(rng, rng.randint(2, 5), rng.randint(3, 9)) for _ in range(10)]
    graphs += [graph_from_metric(rand_metric(rng, k, den=den), 6, rng, den=den)
               for k in (2, 3, 5) for den in (1000, 6)]
    for g in graphs:
        emb = project_graph(g)
        m, vecs = emb.metric, distance_vectors(g)
        assert emb.scale == 2 * lcm(*(e.length.denominator for e in g.edges))
        rows = {v: m.row(t) for t, v in g.terminals.items()}
        for v in g.vertices:
            assert emb.points[v] == (rows[v] if v in rows else project(m, vecs[v]))
            assert all(type(n) is int for n in emb.ipoints[v])
            assert [F(n, emb.scale) for n in emb.ipoints[v]] == [
                emb.points[v][t] for t in m.terminals]


def _dijkstra_reference(adj, source):
    """Dijkstra in Fractions over an adjacency of (neighbour, length) lists."""
    dist = {source: F(0)}
    seen = set()
    heap = [(F(0), 0, source)]
    counter = 0
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        for w, length in adj[u]:
            if w not in dist or d + length < dist[w]:
                dist[w] = d + length
                counter += 1
                heapq.heappush(heap, (d + length, counter, w))
    return dist


def test_int_dijkstra_matches_the_fraction_reference():
    rng = random.Random(90210)
    for _ in range(15):
        g = rand_multigraph(rng, rng.randint(2, 5), rng.randint(3, 9))
        adj = {v: [] for v in g.vertices}
        for u, v, _, length in g.edges:
            adj[u].append((v, length))
            adj[v].append((u, length))
        scale = lcm(*(e.length.denominator for e in g.edges))
        # the int table: each edge's neighbours in edge order, lengths on scale
        assert g.length_table() == (
            {u: (tuple(w for w, _ in nbrs), tuple(int(x * scale) for _, x in nbrs))
             for u, nbrs in adj.items()}, scale)
        for v in g.vertices:
            ref = _dijkstra_reference(adj, v)
            got = shortest_distances(g, v)
            assert got == ref and list(got) == list(ref)
            assert all(type(x) is F for x in got.values())
            assert got.scale == scale
            assert got.ints == {w: x * scale for w, x in ref.items()}


def test_edge_distances_star_runs_one_dijkstra_per_terminal(monkeypatch):
    rng = random.Random(5)
    m = rand_metric(rng, 5)
    g = graph_from_metric(m, 6, rng)
    sources = []
    real = spanflow.graphs.shortest_distances

    def counting(g, source):
        sources.append(source)
        return real(g, source)

    monkeypatch.setattr(spanflow.graphs, "shortest_distances", counting)
    edge_distance_ints(g)
    assert sorted(sources) == sorted(g.terminals.values())


def test_sparsify_dijkstra_runs_do_not_grow_with_samples(monkeypatch, tmp_path, capsys):
    rng = random.Random(11)
    m = rand_metric(rng, 5)
    g = graph_from_metric(m, 8, rng)
    lines = [f"terminal {t} {v}" for t, v in g.terminals.items()]
    lines += [f"edge {e.u} {e.v} {e.capacity} {e.length}" for e in g.edges]
    f = tmp_path / "g.txt"
    f.write_text("\n".join(lines) + "\n")
    calls = [0]
    real = spanflow.graphs.shortest_distances

    def counting(g, source):
        calls[0] += 1
        return real(g, source)

    monkeypatch.setattr(spanflow.graphs, "shortest_distances", counting)
    runs = []
    for samples in ("2", "20"):
        calls[0] = 0
        assert main(["sparsify", str(f), "--seed", "4", "--samples", samples]) == 0
        runs.append(calls[0])
    capsys.readouterr()
    assert runs[0] == runs[1]
    assert runs[0] == len(g.terminals)  # opt reuses the projection's runs
