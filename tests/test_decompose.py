import dataclasses
import hashlib
import math
import random
import re
import types
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from spanflow import decompose
from spanflow.decompose import (Cluster, Decomposer, Solution, _build_model, _Cut, _FanModel,
                                _PlanarModel, _TreeModel, classify, contract, cost, expected_cost,
                                moment_stats, sample_seed, sample_volumes, type1_metric,
                                type2_metric, type3_metric)
from spanflow.graphs import GraphError, TerminalGraph, project_graph, terminal_metric
from spanflow.hard6 import metric6
from spanflow.textio import dump_graph
from spanflow.metric import MetricError, TerminalMetric, validate_metric
from spanflow.tightspan import UnsupportedSizeError, enumerate_complex, lattice_ints, ts_distance

from conftest import graph_from_metric, rand_connected_graph, rand_metric, rand_multigraph
from test_cli import _sparsify_fixtures


def rand_fr(rng, lo=1, hi=6):
    return F(rng.randint(lo * 4, hi * 4), 4)


def rand_type1(rng):
    pend = {t: rand_fr(rng) for t in "abcde"}
    sides = {("a", "b"): rand_fr(rng), ("b", "c"): rand_fr(rng),
             ("c", "d"): rand_fr(rng), ("d", "e"): rand_fr(rng),
             ("e", "a"): rand_fr(rng)}
    return pend, sides, type1_metric(pend, sides)


def rand_type2(rng):
    w, h = rand_fr(rng, 6, 9), rand_fr(rng, 6, 9)
    p, q, f = rand_fr(rng, 1, 2), rand_fr(rng, 1, 2), rand_fr(rng, 1, 2)
    pend = {t: rand_fr(rng) for t in "abcde"}
    return (w, h, p, q, f, pend), type2_metric(w, h, p, q, f, pend)


def rand_type3(rng):
    bands = [rand_fr(rng) for _ in range(4)] + [rand_fr(rng, 1, 2)]
    pend = {t: rand_fr(rng) for t in "abcde"}
    return (bands, pend), type3_metric(*bands, pend)


def test_classify_type1_roundtrip(rng):
    for _ in range(5):
        pend, sides, m = rand_type1(rng)
        tpl = classify(enumerate_complex(m))
        assert tpl.tag == "type1"
        for t in "abcde":
            assert tpl.params[f"pendant_{t}"] == pend[t]
        for (a, b), v in sides.items():
            assert tpl.params[f"side_{min(a,b)}_{max(a,b)}"] == v
        # the discovered cycle is the built one up to rotation/reflection
        cyc = list(tpl.cycle)
        doubled = cyc + cyc
        seqs = ["".join(doubled[i:i + 5]) for i in range(5)]
        rev = cyc[::-1] + cyc[::-1]
        seqs += ["".join(rev[i:i + 5]) for i in range(5)]
        assert "abcde" in seqs


def test_classify_type2_roundtrip(rng):
    for _ in range(5):
        (w, h, p, q, f, pend), m = rand_type2(rng)
        tpl = classify(enumerate_complex(m))
        assert tpl.tag == "type2"
        assert tpl.params["fold"] == f
        for t in "abcde":
            assert tpl.params[f"pendant_{t}"] == pend[t]
        bands = {tuple(sorted((tpl.params["x_band_0"], tpl.params["x_band_2"]))),
                 tuple(sorted((tpl.params["y_band_0"], tpl.params["y_band_2"])))}
        expect = {tuple(sorted((p, w - p - f))), tuple(sorted((q, h - q - f)))}
        assert bands == expect
        assert tpl.params["x_band_1"] == f and tpl.params["y_band_1"] == f


def test_classify_type3_roundtrip(rng):
    for _ in range(5):
        (bands, pend), m = rand_type3(rng)
        x_lo, x_hi, y_lo, y_hi, f = bands
        tpl = classify(enumerate_complex(m))
        assert tpl.tag == "type3"
        assert tpl.params["fold"] == f
        for t in "abcde":
            assert tpl.params[f"pendant_{t}"] == pend[t]
        got = {tuple(sorted((tpl.params["x_band_0"], tpl.params["x_band_2"]))),
               tuple(sorted((tpl.params["y_band_0"], tpl.params["y_band_2"])))}
        assert got == {tuple(sorted((x_lo, x_hi))), tuple(sorted((y_lo, y_hi)))}


def test_classify_path_metric_degenerate():
    m = TerminalMetric.from_pairs(
        {(a, b): abs(ord(a) - ord(b)) for a, b in combinations("abcde", 2)})
    tpl = classify(enumerate_complex(m))
    assert tpl.tag == "degenerate"
    assert all(c.dim <= 1 for c in enumerate_complex(m).cells)


PEND = {"a": 1, "b": F(3, 2), "c": 2, "d": F(1, 2), "e": 1}
SIDES = {("a", "b"): 2, ("b", "c"): 1, ("c", "d"): 3, ("d", "e"): F(5, 2), ("e", "a"): 1}


@pytest.mark.parametrize("build", [
    lambda x: type1_metric({**PEND, "b": x}, SIDES),
    lambda x: type1_metric(PEND, {**SIDES, ("b", "c"): x}),
    lambda x: type2_metric(7, 6, 2, 1, x, PEND),
    lambda x: type2_metric(7, 6, 2, 1, 1, {**PEND, "e": x}),
    lambda x: type3_metric(2, x, 1, 2, 1, PEND),
    lambda x: type3_metric(2, 3, 1, 2, 1, {**PEND, "a": x}),
], ids=["type1 pendant", "type1 side", "type2 fold", "type2 pendant", "type3 band",
        "type3 pendant"])
def test_template_builders_coerce_through_as_fraction(build):
    ref = build(F(3, 2))
    got = build("3/2")
    assert (got.terminals, got.matrix()) == (ref.terminals, ref.matrix())
    with pytest.raises(MetricError, match="^floating point distance 0.1 rejected"):
        build(0.1)
    with pytest.raises(MetricError, match=r"^not a rational: '3/x'$"):
        build("3/x")


def test_template_builders_reject_bad_shapes():
    with pytest.raises(MetricError, match="^the fan template needs exactly five terminals$"):
        type1_metric(PEND, SIDES, cycle="abcd")
    with pytest.raises(MetricError, match="^fold square must lie strictly inside the rectangle$"):
        type2_metric(7, 6, 2, 1, 5, PEND)   # 2 + 5 reaches the width 7
    with pytest.raises(MetricError, match="^all band widths must be positive$"):
        type3_metric(2, 3, 0, 2, 1, PEND)


def test_classify_rejects_six_terminals():
    with pytest.raises(UnsupportedSizeError, match="^classification supports at most 5 terminals$"):
        classify(enumerate_complex(metric6()))


def _model_name(m: TerminalMetric) -> str:
    return type(_build_model(enumerate_complex(m), 1)).__name__


def test_degenerate_inputs_build_a_paper_model():
    # tie-heavy and zero-parameter inputs: each must build the tree, fan or
    # planar model (a rejection raises), and the set reaches all three
    pairs = list(combinations("abcde", 2))
    small = Counter(_model_name(TerminalMetric.from_pairs(dict(zip(pairs, ds))))
                    for ds in product((1, 2), repeat=10))
    assert small == {"_TreeModel": 122, "_PlanarModel": 890, "_FanModel": 12}
    fans = Counter()
    for vals in product((0, 1), repeat=10):
        m = type1_metric(dict(zip("abcde", vals[:5])),
                         dict(zip(zip("abcde", "bcdea"), vals[5:])))
        if not validate_metric(m):
            fans[_model_name(m)] += 1
    assert fans == {"_TreeModel": 156, "_PlanarModel": 560, "_FanModel": 32}


def test_three_dimensional_complex_is_rejected_with_each_reason():
    cx = enumerate_complex(metric6())
    assert max(c.dim for c in cx.cells) == 3
    with pytest.raises(MetricError) as err:
        _build_model(cx, 1)
    assert "fan: not a fan complex" in str(err.value)
    assert "planar: a cell of dimension above 2" in str(err.value)


# -- hand-built complexes: each model rejection, read from classify's message --

def _edited(cx, edits=None, extra=()):
    """cx with cell i's fields replaced by edits[i], and the cells `extra` appended."""
    cells = list(cx.cells)
    for i, change in (edits or {}).items():
        cells[i] = dataclasses.replace(cells[i], **change)
    return dataclasses.replace(cx, cells=tuple(cells) + tuple(extra))


def _ids(*vertex_ids):
    return {"vertex_ids": vertex_ids}


def _fan_complex():
    """The fan of PEND and SIDES: center 5; rectangles (cell: vertices)
    2: (1, 2, 4, 5), 4: (2, 3, 5, 7), 5: (5, 7, 11, 12), 7: (5, 9, 11, 13) and
    8: (4, 5, 8, 9); pendants (cell: terminal, its vertex, its prime corner)
    0: a 0 1, 1: b 6 3, 3: c 14 12, 6: d 15 13 and 9: e 10 8."""
    cx = enumerate_complex(type1_metric(PEND, SIDES))
    assert [c.vertex_ids for c in cx.cells] == [
        (0, 1), (3, 6), (1, 2, 4, 5), (12, 14), (2, 3, 5, 7), (5, 7, 11, 12), (13, 15),
        (5, 9, 11, 13), (4, 5, 8, 9), (8, 10)]
    return cx


def _square_complex():
    """A four-terminal span: one square 2-cell (cell 2, vertices 1, 2, 3, 6;
    sides 1-2 and 1-3, diagonal 1-6) with four pendants."""
    cx = enumerate_complex(TerminalMetric.from_pairs(
        {("a", "b"): 3, ("a", "c"): 2, ("a", "d"): 2, ("b", "c"): 2, ("b", "d"): 2,
         ("c", "d"): 3}))
    assert cx.cells[2].dim == 2 and cx.cells[2].vertex_ids == (1, 2, 3, 6)
    return cx


def _type2_complex():
    """A type-2 span: 2-cells 2, 4, 5, 6, 7; fold (4, 6) in cells 4, 6 and 7;
    vertices 1 and 5 are a diagonal two x-bands apart."""
    cx = enumerate_complex(type2_metric(7, 6, 2, 1, 1, PEND))
    model = _build_model(cx, 1)
    assert [c.vertex_ids for c in model.two] == [
        (1, 2, 3, 4), (3, 4, 6, 10, 12), (6, 12, 13, 14), (2, 4, 6, 8, 13), (4, 5, 6)]
    assert model.fold == (4, 6) and model.xs[:3] == [152, 184, 216]
    assert (model.plan[1], model.plan[5]) == ((152, -120), (216, -56))
    return cx


def _square_copies(*vertex_ids):
    """The square with two more copies of its 2-cell, on `vertex_ids`."""
    cx = _square_complex()
    return _edited(cx, extra=[dataclasses.replace(cx.cells[2], vertex_ids=vertex_ids)] * 2)


def _no_two_cells():
    cx = _type2_complex()
    return _edited(cx, {i: {"dim": 3} for i, c in enumerate(cx.cells) if c.dim == 2})


def _no_chart():
    # x_a pinned to -2 puts every point of cell 2 outside the polyhedron
    cx = _type2_complex()
    return _edited(cx, {2: {"system": cx.cells[2].system + ((0, 0, -8),)}})


def _square_fan():
    # five rectangles sharing vertex 1, no pendants: four terminals, four primes
    cx = _square_complex()
    return dataclasses.replace(cx, cells=tuple(
        dataclasses.replace(cx.cells[2], vertex_ids=ids)
        for ids in ((1, 2, 3, 6), (1, 0, 4, 5), (1, 2, 4, 7), (1, 3, 5, 7), (1, 0, 6, 7))))


def _long_fold():
    # cell 4 drops vertex 4, so (4, 6) is in two cells; three copies of cell 2
    # make (1, 5) the only pair in three cells
    cx = _type2_complex()
    return _edited(cx, {4: _ids(3, 6, 10, 12)},
                   [dataclasses.replace(cx.cells[2], vertex_ids=(1, 5))] * 3)


@pytest.mark.parametrize("build, reason", [
    (lambda: _edited(_fan_complex(), {2: _ids(1, 2, 4, 0)}),
     "fan: fan rectangles must share one center"),
    (lambda: _edited(_fan_complex(), {0: _ids(1, 2)}), "fan: fan pendant must end at one terminal"),
    (_square_fan, "fan: each terminal needs its own pendant"),
    # b's rectangle takes a's prime corner 1 in place of its own, 3
    (lambda: _edited(_fan_complex(), {4: _ids(2, 1, 5, 7)}),
     "fan: prime corner must belong to one rectangle"),
    # a's rectangle holds both a's and b's prime corners
    (lambda: _edited(_fan_complex(), {2: _ids(1, 2, 3, 5), 4: _ids(2, 6, 5, 7)}),
     "fan: rectangles and terminals must pair up"),
    (lambda: _edited(_fan_complex(), {4: _ids(2, 3, 5, 4)}),
     "fan: fan rectangles overlap too much"),
    # b's rectangle shares no corner with its neighbours
    (lambda: _edited(_fan_complex(), {4: _ids(0, 3, 5, 6)}),
     "fan: fan rectangles must form a single cycle"),
    # a and b swap pendants
    (lambda: _edited(_fan_complex(), {0: _ids(0, 3), 1: _ids(1, 6)}),
     "fan: fan parameters do not reproduce the metric"),
    (_no_two_cells, "planar: no 2-cells for the planar model"),
    (_no_chart, "planar: no global planar chart"),
    # each of the square's six vertex pairs is in three cells
    (lambda: _square_copies(1, 2, 3, 6), "planar: more than one fold segment"),
    # only the side 1-2 is
    (lambda: _square_copies(1, 2), "planar: fold is not diagonal"),
    (_long_fold, "planar: fold must span single bands"),
], ids=["center", "pendant", "own pendant", "prime corner", "pair up", "overlap", "cycle",
        "round trip", "no 2-cells", "chart", "two folds", "diagonal", "single bands"])
def test_hand_built_complexes_are_rejected_with_each_reason(build, reason):
    with pytest.raises(MetricError, match="^no span model fits the complex") as err:
        classify(build())
    assert reason in str(err.value)


def _path_complex():
    return enumerate_complex(TerminalMetric.from_pairs(
        {(a, b): abs(ord(a) - ord(b)) for a, b in combinations("abcde", 2)}))


@pytest.mark.parametrize("build, model, message", [
    (_fan_complex, _FanModel, "^point not on the fan span$"),
    (_type2_complex, _PlanarModel, "^point not on the span$"),
    (_path_complex, _TreeModel, "^point not on the span$"),
], ids=["fan", "planar", "tree"])
def test_localize_rejects_a_point_off_the_span(build, model, message):
    built = _build_model(build(), 1)
    assert type(built) is model
    with pytest.raises(MetricError, match=message):
        built.localize((4, 8, 12, 16, 20))


# -- the planar chart and lifts against the determinant and barycentric code ---

def _det_chart(cx, two):
    """Reference chart: the first terminal pair such that each 2-cell has a
    vertex triangle of nonzero determinant in the (x_t1, x_t2) frame, and
    every coordinate's gradient in that frame has l1 norm at most 1."""
    V = cx.vertices
    for t1, t2 in combinations(cx.metric.terminals, 2):
        ok = True
        for c in two:
            tri = None
            for cand in combinations(c.vertex_ids, 3):
                a, b, d = (V[i] for i in cand)
                det = ((b[t1] - a[t1]) * (d[t2] - a[t2])
                       - (d[t1] - a[t1]) * (b[t2] - a[t2]))
                if det != 0:
                    tri = (a, b, d, det)
                    break
            if tri is None:
                ok = False  # chart degenerate on this cell
                break
            a, b, d, det = tri
            for t in cx.metric.terminals:
                alpha = ((b[t] - a[t]) * (d[t2] - a[t2])
                         - (d[t] - a[t]) * (b[t2] - a[t2])) / det
                beta = ((d[t] - a[t]) * (b[t1] - a[t1])
                        - (b[t] - a[t]) * (d[t1] - a[t1])) / det
                if abs(alpha) + abs(beta) > 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return (t1, t2)
    return None


def _bary(tri, x, y):
    (x0, y0), (x1, y1), (x2, y2) = tri
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if det == 0:
        return None
    l1 = ((x - x0) * (y2 - y0) - (x2 - x0) * (y - y0)) / det
    l2 = ((x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)) / det
    return (1 - l1 - l2, l1, l2)


def _bary_lift(model, ci, gx, gy):
    """Reference lift: cell ci's point over grid anchor (gx, gy) as the
    barycentric mix of the first vertex triangle whose plan contains the
    anchor, a coordinate tuple, or None if no triangle does.  The model's
    grid and plan are ints on `model.scale`."""
    x, y = F(model.xs[gx], model.scale), F(model.ys[gy], model.scale)
    pts = [(tuple(F(n, model.scale) for n in model.plan[v]), model.complex.vertices[v])
           for v in model.two[ci].vertex_ids]
    for tri in combinations(pts, 3):
        coeff = _bary([q[0] for q in tri], x, y)
        if coeff is None or any(c < 0 for c in coeff):
            continue
        return tuple(sum(c * q[1][t] for c, q in zip(coeff, tri))
                     for t in model.metric.terminals)
    return None


def _reversed(m):
    """m with its terminals in reverse order (this flips the fold's slope)."""
    ts = m.terminals[::-1]
    return TerminalMetric(ts, [[m.d(a, b) for b in ts] for a in ts])


def test_planar_lifts_match_the_barycentric_reference(rng):
    metrics = [terminal_metric(g) for _, g, model in _sparsify_fixtures()
               if model == "_PlanarModel"]
    for builder in (rand_type2, rand_type3):
        for _ in range(3):
            m = builder(rng)[-1]
            metrics += [m, _reversed(m)]
    slopes, lifted = Counter(), Counter()
    for m in metrics:
        model = _build_model(enumerate_complex(m), 1)
        assert isinstance(model, _PlanarModel)
        if model.fold_bands:
            slopes[model.fold_bands[2]] += 1
        keys = list(product(range(len(model.two)), range(len(model.xs)), range(len(model.ys))))
        lifts = [model._lift(*key) for key in keys]
        reps = [tuple(F(n, model.scale) for n in rep) for rep in model.rep_ids]
        for key, rid in zip(keys, lifts):
            assert (None if rid is None else reps[rid]) == _bary_lift(model, *key), (m, key)
            lifted[rid is None] += 1
    assert slopes[1] >= 5 and slopes[-1] >= 5, slopes
    assert min(lifted.values()) > 100, lifted


def test_planar_chart_matches_the_determinant_reference():
    pairs = list(combinations("abcde", 2))
    charts = Counter()
    for ds in product((1, 2), repeat=10):
        cx = enumerate_complex(TerminalMetric.from_pairs(dict(zip(pairs, ds))))
        two = [c for c in cx.cells if c.dim == 2]
        if two:
            chart = decompose._find_chart(cx, two)
            assert chart == _det_chart(cx, two), ds
            charts[chart is not None] += 1
    # the 890 planar models are charted; the 12 fans have no chart
    assert charts == {True: 890, False: 12}


def _vertex_models():
    """Every span model of a {1, 2} five-point metric, then five derived
    instances of each template, each also with its terminals reversed."""
    pairs = list(combinations("abcde", 2))
    for ds in product((1, 2), repeat=10):
        yield _build_model(enumerate_complex(TerminalMetric.from_pairs(dict(zip(pairs, ds)))), 1)
    rng = random.Random(24)
    for builder in (rand_type1, rand_type2, rand_type3):
        for _ in range(5):
            m = builder(rng)[-1]
            for metric in (m, _reversed(m)):
                yield _build_model(enumerate_complex(metric), 1)


def test_complex_vertex_i_is_representative_i():
    kinds = Counter()
    for model in _vertex_models():
        kinds[type(model).__name__] += 1
        n = len(model.V)
        assert [model.localize(v) for v in model.V] == list(range(n))
        assert all(model.localize(row) == model.vid[row] for row in model.rows.values())
        # each terminal's vertex id, mapped once by the model
        assert model.term_vid == {t: model.localize(row) for t, row in model.rows.items()}
        if isinstance(model, _PlanarModel):
            # a vertex on 2-cells is a band-grid point: the anchor there is the vertex
            for i in range(n):
                cells = tuple(ci for ci, c in enumerate(model.two) if i in c.vertex_ids)
                if cells:
                    assert model._cell_node(*model.plan[i], cells) == i
        # the ids are the vertex ids in order, and localizing a vertex interns nothing
        assert list(model.rep_ids.items()) == list(model.vid.items())
    assert kinds == {"_TreeModel": 122, "_PlanarModel": 910, "_FanModel": 22}


def test_one_and_two_terminal_graphs_build_tree_models(rng):
    one = TerminalGraph(vertices=["a", "x", "y"],
                        edges=[("a", "x", F(1), F(2)), ("x", "y", F(3), F(1))],
                        terminals={"a": "a"})
    dec = Decomposer(project_graph(one))
    assert isinstance(dec.model, _TreeModel)
    for seed in range(5):
        sol = dec.solution(seed)
        assert [(c.label, c.vertices) for c in sol.clusters] == [("t:a", ["a", "x", "y"])]
    two = rand_connected_graph(rng, 10, 8)
    emb = project_graph(two)
    dec = Decomposer(emb)
    assert isinstance(dec.model, _TreeModel)
    assert any(isinstance(node, _Cut) for node in dec.nodes.values())
    for seed in range(20):
        sol = dec.solution(seed)
        cs, ct = sol.cluster_of(two.terminals["s"]), sol.cluster_of(two.terminals["t"])
        assert sol.delta(cs, ct) == emb.metric.d("s", "t")


def test_sampler_terminal_exactness_and_bounds(rng):
    bounds = {"type1": 16, "type2": 22, "type3": 21}
    builders = [rand_type1, rand_type2, rand_type3]
    for builder in builders:
        m = builder(rng)[-1]
        g = graph_from_metric(m, 6, rng)
        emb = project_graph(g)
        dec = Decomposer(emb)
        bound = bounds[dec.template.tag]
        for seed in range(120):
            sol = dec.solution(seed)
            assert sol.size() <= bound
            assert sol.size() <= 30
            for t, u in combinations(m.terminals, 2):
                ci = sol.cluster_of(g.terminals[t])
                cj = sol.cluster_of(g.terminals[u])
                assert sol.delta(ci, cj) == m.d(t, u)


def test_sampler_exactness_random_metrics(rng):
    # arbitrary metrics may be degenerate; exactness and the 30 bound must hold
    for _ in range(10):
        m = rand_metric(rng, rng.randint(2, 5))
        g = graph_from_metric(m, 4, rng)
        emb = project_graph(g)
        dec = Decomposer(emb)
        for seed in range(40):
            sol = dec.solution(seed)
            assert sol.size() <= 30
            for t, u in combinations(m.terminals, 2):
                ci = sol.cluster_of(g.terminals[t])
                cj = sol.cluster_of(g.terminals[u])
                assert sol.delta(ci, cj) == m.d(t, u)


def _graph_with_points(m, points):
    ts_names = list(m.terminals)
    verts = list(ts_names)
    edges = [(a, b, F(1), m.d(a, b)) for a, b in combinations(ts_names, 2)]
    for i, p in enumerate(points):
        vid = f"w{i}"
        verts.append(vid)
        for t in ts_names:
            edges.append((vid, t, F(1), p[t]))
    return TerminalGraph(vertices=verts, edges=edges, terminals={t: t for t in ts_names})


#: tag, metric and cluster bound of each shape in `test_boundary_points_exact`;
#: type2 folds with slope +1, type3 with slope -1
BOUNDARY_CASES = [
    ("type2", type2_metric(F(7), F(6), F(2), F(1), F(3, 2),
                           {t: F(2) for t in "abcde"}), 22),
    ("type3", type3_metric(F(2), F(3), F(1), F(2), F(3, 2),
                           {t: F(1) for t in "abcde"}), 21),
    ("type1", type1_metric({t: F(1) for t in "abcde"},
                           {("a", "b"): F(2), ("b", "c"): F(1), ("c", "d"): F(3),
                            ("d", "e"): F(2), ("e", "a"): F(1)}), 16),
]


def _boundary_points(base: Decomposer) -> list:
    """Every complex vertex, every cell centroid and the fold midpoint, if any."""
    cx, m = base.complex, base.embedded.metric
    pts = list(cx.vertices)
    for cell in cx.cells:
        ids = cell.vertex_ids
        pts.append({t: sum(cx.vertices[i][t] for i in ids) / len(ids)
                    for t in m.terminals})
    if isinstance(base.model, _PlanarModel) and base.model.fold:
        i, j = base.model.fold
        a, b = cx.vertices[i], cx.vertices[j]
        pts.append({t: (a[t] + b[t]) / 2 for t in m.terminals})
    return pts


def test_boundary_points_exact(rng):
    # vertices placed exactly on cell vertices, midpoints, and the fold
    for tag, m, bound in BOUNDARY_CASES:
        base = Decomposer(project_graph(_graph_with_points(m, [])))
        assert base.template.tag == tag
        pts = _boundary_points(base)
        emb = project_graph(_graph_with_points(m, pts))
        for i, p in enumerate(pts):
            assert emb.points[f"w{i}"] == p
        dec = Decomposer(emb)
        for seed in range(300):
            assign = dec.assignment_ids(seed)
            assert len(set(assign.values())) <= bound
        rep = expected_cost(emb, 1200, master_seed=11, per_edge=True)
        for st in rep.per_edge:
            assert float(st.mean_delta) <= float(st.embed_dist) + 3 * st.stderr + 1e-12


def _pinned_graphs():
    """The `sparsify` golden fixtures and the boundary-point graphs, by name."""
    for name, g, _ in _sparsify_fixtures():
        yield name, project_graph(g)
    for tag, m, _ in BOUNDARY_CASES:
        base = Decomposer(project_graph(_graph_with_points(m, [])))
        yield f"boundary_{tag}", project_graph(_graph_with_points(m, _boundary_points(base)))


def _assignment_digest(dec: Decomposer, seeds: range) -> str:
    """sha256 of every vertex's representative tuple for each seed."""
    h = hashlib.sha256()
    for seed in seeds:
        assign = dec.assignment_ids(seed)
        for v in sorted(assign, key=str):
            h.update(f"{seed} {v} {' '.join(map(str, dec.lattice.points[assign[v]]))}\n".encode())
    return h.hexdigest()


#: `_assignment_digest` over seeds 0-199, recorded while every sample still
#: drew Fractions and resolved tokens through the per-model resolvers
ASSIGNMENT_GOLDEN = {
    "fan": "e7ae1d61fe5e07ceac24c8997705c142e44be97e6233231b79ab11c3202b5af0",
    "fold": "c208f373bb540984ae6c934e1eca9142e992f39554d6155e73dad695cabc2e03",
    "overlap": "2eccf6ce89ef0629bc41f56d3f05088407e9670b6487ade2e583dc0d45938824",
    "tree": "7340da3505d76578086b5d94c7ae767b6946fdd8ecda2d3b934b608e3e04569d",
    "pendant": "b67d077b541dab880f3f29f5dbdf38bebb48b0d7095c44ebd2b3ea00afa3a47b",
    "boundary_type2": "53d0eb0ea60f13f7dc99ea22cc39d7ae3ba0e1717de6c1b2f30010369f787a90",
    "boundary_type3": "69a93543ef4f7b40bcf29b29a3f4870d6aaf2e52982c606c5f13be00510cddb7",
    "boundary_type1": "ed83e12587c9061f984590d1dfc2bfecbacd84af9ce0f2a8febad89c672e8983",
}


def test_assignment_digests_pinned():
    got = {name: _assignment_digest(Decomposer(emb), range(200))
           for name, emb in _pinned_graphs()}
    assert got == ASSIGNMENT_GOLDEN


def _coprime_graphs():
    """Two graphs per template whose Steiner lengths have denominators 7 and 11,
    so the embedded points sit on a lattice finer than the complex's."""
    rng = random.Random(71)
    for rand_shape in (rand_type1, rand_type2, rand_type3):
        for den in (7, 11):
            m = rand_shape(rng)[-1]
            yield (f"{rand_shape.__name__[5:]}_{den}",
                   project_graph(graph_from_metric(m, 10, rng, den=den)))


#: `_assignment_digest` over seeds 0-199, recorded while localization still
#: computed in Fractions
COPRIME_GOLDEN = {
    "type1_7": "cf01c6a525886591f511a460578db70d69182f86283764d2909e6e4a05e8b404",
    "type1_11": "44bbbe5d08e017771edc6c82cf11c3edfe51c7fb18b511217ac1a013f0ad850d",
    "type2_7": "9e54073f82d2ea103be4087309894d5ad044b5eef781fddda3fbef97a842339f",
    "type2_11": "6ce07cf42638ba1e3ce8f3420ec325e25e340de961e8838c7dfd172e5fddc8ef",
    "type3_7": "04e8014b3e15d2a5e5dc104a4b2fe82edc4bd6be00e9232ad0eaee6b9f5c2b43",
    "type3_11": "981e8a6d7485a5097c6c47b20c14f3330d4baa73083a4c24802fad100fbda36b",
}


def test_coprime_denominator_digests_pinned():
    got, tags = {}, set()
    for name, emb in _coprime_graphs():
        dec = Decomposer(emb)
        tags.add(dec.template.tag)
        assert all(type(node) is _Cut for v, node in dec.nodes.items()
                   if v not in emb.graph.terminals.values())
        got[name] = _assignment_digest(dec, range(200))
    assert tags == {"type1", "type2", "type3"}
    assert got == COPRIME_GOLDEN


def _expected_cost_digest(emb, n: int, seed: int) -> str:
    """sha256 of `expected_cost(per_edge=True)`: the volume summary and, per
    edge, its mean delta, stderr and embedded distance."""
    rep = expected_cost(emb, n, seed, per_edge=True)
    h = hashlib.sha256()
    h.update(f"{rep.mean_vol} {rep.stderr!r}\n".encode())
    for st in rep.per_edge:
        h.update(f"{st.mean_delta} {st.stderr!r} {st.embed_dist}\n".encode())
    return h.hexdigest()


#: `_expected_cost_digest` with 60 samples from master seed 5, recorded while
#: the per-edge statistics still counted cluster pairs per edge and averaged
#: them with a Fraction `mean_stderr`
EXPECTED_COST_GOLDEN = {
    "fan": "595a677e087de7494cdf7dd5ad3f3aa60960c489d8cc737bf84d2ef8fd62c9fb",
    "fold": "1be17110ba1fbe5ff39985618834b17bd924394473326e3236abd9bb8cfaf033",
    "overlap": "8d4dd3e32cf551770de9cfe1131180bb2162424950ee1c51b4d23e10e0680fca",
    "tree": "a182efe909ee47925504052c977a7d2149e77d3f7282f94aa2964e945e06a3a5",
    "pendant": "113438038473a463517b03890f3c094e18ad128c1475b0bd833d9f0499150246",
    "boundary_type2": "b33e4615a4d8a0cd7d8e268e4099f90e8c788d6a25f9e3b2ab463b839a8b2d30",
    "boundary_type3": "f6ab2c4abc371a0a82cb5d1c46d2fef6ea769c41a2237b67d4701e6e3c3d57d1",
    "boundary_type1": "c66429d6c9a74e2c5ca7f2daf5f29cc6120f05ac2a8bd72effd96e05bd27cffe",
    "type1_7": "f3831093f651e46617367771825603760d2157d743cff5465f70fabfc4c3df51",
    "type1_11": "d5d3b4b9bccde03631f5c181bc38f6c267a8995230dcc7708c660d7115ee851c",
    "type2_7": "ab63003b5a7b952836393471b11ff2af018cc7990ebf1f4bcc2b87276c9a93aa",
    "type2_11": "549f272e4333fac056887bc1600b25a93bc272e4ffa2e1a2a5bb06c787cd23e1",
    "type3_7": "f874670c95939d370324b42cd18333f7d0228001f4eea4659e108553dc3763fd",
    "type3_11": "68b8d01e54a1b55212a429e30734de7934371118d1a65defd0bfc81c89fbce27",
}


def test_expected_cost_digests_pinned():
    got = {name: _expected_cost_digest(emb, 60, 5)
           for name, emb in (*_pinned_graphs(), *_coprime_graphs())}
    assert got == EXPECTED_COST_GOLDEN


def _zero_draws(zero: set):
    """A stand-in for the `random` module whose Random returns U = 0 on the
    draws numbered in `zero` (in the order `assignment_ids` makes them)."""
    class Random(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.calls = 0

        def getrandbits(self, k):
            u = super().getrandbits(k)
            self.calls += 1
            return 0 if self.calls - 1 in zero else u
    return types.SimpleNamespace(Random=Random)


def test_zero_draw_on_a_band_grid_line_has_an_anchor(monkeypatch):
    # a vertex on a band's lower grid line used to take the next band's
    # anchor when its band draw was U = 0, and that anchor can be missing
    graphs = dict(_pinned_graphs())
    for name, zero in (("boundary_type2", {1}), ("boundary_type3", {1}),
                       ("boundary_type3", {3})):
        dec = Decomposer(graphs[name])
        expected = [dec.assignment_ids(seed) for seed in range(5)]
        monkeypatch.setattr(decompose, "random", _zero_draws(zero))
        for seed in range(5):
            got = dec.assignment_ids(seed)
            assert got.keys() == expected[seed].keys()
            assert None not in got.values()
        monkeypatch.undo()


def _reachable_leaves(node, box):
    """Leaves of a cut tree reachable by some draws: `box` maps a draw to the
    interval [lo, hi] its U may still take."""
    if not isinstance(node, _Cut):
        yield node
        return
    lo, hi = box.get(node.d, (0, (1 << 53) - 1))
    if lo <= node.t:
        yield from _reachable_leaves(node.below, {**box, node.d: (lo, min(hi, node.t))})
    if hi > node.t:
        yield from _reachable_leaves(node.above, {**box, node.d: (max(lo, node.t + 1), hi)})


def test_no_draw_reaches_a_missing_anchor():
    # exact: over every 53-bit draw, no cut tree of the pinned graphs, or of
    # random type2/type3 graphs, ends at a leaf without an anchor
    rng = random.Random(61)
    embs = [emb for _, emb in _pinned_graphs()]
    embs += [project_graph(graph_from_metric(m, 12, rng))
             for m in [rand_type2(rng)[-1] for _ in range(4)]
             + [rand_type3(rng)[-1] for _ in range(4)]]
    planar = 0
    for emb in embs:
        dec = Decomposer(emb)
        planar += isinstance(dec.model, _PlanarModel)
        for v, node in dec.nodes.items():
            assert None not in set(_reachable_leaves(node, {})), v
    assert planar >= 10


def _cuts(node):
    if isinstance(node, _Cut):
        yield node
        yield from _cuts(node.below)
        yield from _cuts(node.above)


def test_cut_thresholds_match_fraction_draws(monkeypatch):
    # reference: the exact Fraction draw lo + U*w/2^53, compared with s
    compiled = []

    def recording(s, lo, w, closed=False):
        t = threshold(s, lo, w, closed)
        compiled.append((s, lo, w, closed, t))
        return t

    threshold = decompose._threshold
    monkeypatch.setattr(decompose, "_threshold", recording)
    cut_ts = set()
    for _, emb in _pinned_graphs():
        dec = Decomposer(emb)
        cut_ts |= {cut.t for node in dec.nodes.values() for cut in _cuts(node)}
    assert {t for *_, t in compiled} >= cut_ts
    assert any(closed for *_, closed, _ in compiled)
    top = 1 << 53
    for s, lo, w, closed, t in compiled:
        for u in {min(max(u, 0), top - 1) for u in (0, 1, t - 1, t, t + 1, top - 1)}:
            draw = lo + F(u, top) * w
            assert (u > t) == (draw >= s if closed else draw > s), (s, lo, w, closed, u)


def test_assignment_and_solution_follow_assignment_ids(rng):
    metrics = [rand_type1(rng)[-1], rand_type2(rng)[-1], rand_type3(rng)[-1],
               TerminalMetric.from_pairs({(a, b): abs(ord(a) - ord(b))
                                          for a, b in combinations("abcde", 2)}),
               rand_metric(rng, 4)]
    for m in metrics:
        dec = Decomposer(project_graph(graph_from_metric(m, 6, rng)))
        for seed in range(15):
            ids = dec.assignment_ids(seed)
            reps = dec.lattice.points
            assert dec.assignment(seed) == {v: reps[i] for v, i in ids.items()}
            groups = {}
            for v, i in ids.items():
                groups.setdefault(i, set()).add(v)
            sol = dec.solution(seed)
            assert sorted(sorted(c.vertices) for c in sol.clusters) == sorted(
                sorted(vs) for vs in groups.values())
            for c in sol.clusters:
                rid = ids[c.vertices[0]]
                assert tuple(c.rep[t] for t in m.terminals) == reps[rid]
                assert c.label.startswith("t:") == (reps[rid] in {
                    tuple(m.row(t).values()) for t in m.terminals})


def test_embedding_mismatch_rejected(rng):
    m = rand_metric(rng, 4)
    g = graph_from_metric(m, 2, rng)
    emb = project_graph(g)
    other = rand_metric(rng, 4)
    emb.metric = other  # rows no longer match the embedded terminals
    import pytest
    from spanflow.metric import MetricError
    with pytest.raises(MetricError):
        Decomposer(emb)


def test_decomposer_rejects_points_off_the_span_or_off_the_rows(rng):
    m = rand_type2(rng)[-1]
    g = graph_from_metric(m, 5, rng)
    Decomposer(project_graph(g))

    def moved(v, t, steps):
        """g's embedding with coordinate t of v's point moved by `steps` lattice steps."""
        emb = project_graph(g)
        p = list(emb.ipoints[v])
        p[m.index(t)] += steps
        emb.ipoints[v] = tuple(p)
        return emb

    # one step up is valid, but c leaves its tight pairs; one step down breaks one
    for steps in (1, -1):
        with pytest.raises(MetricError, match="vertex v3 is outside the span"):
            Decomposer(moved("v3", "c", steps))
    with pytest.raises(MetricError, match="terminal b is not embedded at its own row"):
        Decomposer(moved("b", "a", 1))


def test_decomposer_rejects_a_scale_that_cannot_carry_the_metric(rng):
    pend = {"a": 1, "b": F(3, 2), "c": 2, "d": F(1, 2), "e": 1}
    m = type2_metric(7, 6, 2, 1, F(3, 2), pend)   # half-integral distances
    emb = project_graph(graph_from_metric(m, 5, rng))
    Decomposer(emb)
    with pytest.raises(MetricError, match="not on the 1/1 lattice"):
        Decomposer(dataclasses.replace(emb, scale=1))


def test_expected_cost_nonexpansion_small(rng):
    for builder in (rand_type1, rand_type2, rand_type3):
        m = builder(rng)[-1]
        g = graph_from_metric(m, 5, rng)
        emb = project_graph(g)
        rep = expected_cost(emb, 2000, master_seed=42, per_edge=True)
        assert float(rep.mean_vol) <= float(rep.opt) + 3 * rep.stderr
        for st in rep.per_edge:
            slack = 3 * st.stderr + 1e-12
            assert float(st.mean_delta) <= float(st.embed_dist) + slack


def test_expected_cost_deterministic(rng):
    m = rand_type1(rng)[-1]
    g = graph_from_metric(m, 4, rng)
    emb = project_graph(g)
    r1 = expected_cost(emb, 50, master_seed=7)
    r2 = expected_cost(emb, 50, master_seed=7)
    assert r1.mean_vol == r2.mean_vol
    r3 = expected_cost(emb, 50, master_seed=8)
    assert r3.mean_vol != r1.mean_vol  # overwhelmingly likely


def test_zero_edge_graph():
    g = TerminalGraph(vertices=["a", "b"], edges=[],
                      terminals={"a": "a", "b": "b"})
    g.edges.append(("a", "b", F(1), F(1)))  # connectivity for embedding
    g2 = TerminalGraph(vertices=["a", "b"], edges=g.edges, terminals=g.terminals)
    emb = project_graph(g2)
    emb.graph.edges[:] = []
    rep = expected_cost(emb, 10, master_seed=0)
    assert rep.mean_vol == 0 and rep.opt == 0


def test_cost_terminal_only_ratio_one(rng):
    m = rand_metric(rng, 5)
    g = TerminalGraph(vertices=list(m.terminals),
                      edges=[(t, u, F(1), m.d(t, u))
                             for t, u in combinations(m.terminals, 2)],
                      terminals={t: t for t in m.terminals})
    emb = project_graph(g)
    sol = Decomposer(emb).solution(3)
    assert sol.size() == 5
    report = cost(emb, sol)
    assert report.vol == report.opt and report.ratio == 1


def test_cost_singleton_partition_le_opt(rng):
    m = rand_type2(rng)[-1]
    g = graph_from_metric(m, 4, rng)
    emb = project_graph(g)
    # singleton partition: every vertex its own cluster at its projected point
    from spanflow.decompose import Cluster, Solution
    clusters = []
    by_vertex = {}
    for i, v in enumerate(g.vertices):
        label = f"t:{v}" if v in m.terminals else f"s{i}"
        clusters.append(Cluster(label=label, vertices=[v], rep=emb.points[v]))
        by_vertex[v] = i
    sol = Solution(metric=m, clusters=clusters, by_vertex=by_vertex)
    report = cost(emb, sol)
    assert report.vol <= report.opt


def test_contract_identity_on_singletons(rng):
    m = rand_metric(rng, 4)
    g = graph_from_metric(m, 3, rng)
    emb = project_graph(g)
    from spanflow.decompose import Cluster, Solution
    clusters, by_vertex = [], {}
    for i, v in enumerate(g.vertices):
        clusters.append(Cluster(label=f"c{i}", vertices=[v], rep=emb.points[v]))
        by_vertex[v] = i
    sol = Solution(metric=m, clusters=clusters, by_vertex=by_vertex)
    h = contract(g, sol)
    assert len(h.vertices) == len(g.vertices)
    assert len(h.edges) == len(g.edges)


def test_contract_drops_self_loops():
    g = TerminalGraph(vertices=["a", "u", "b"],
                      edges=[("a", "u", F(1), F(1)), ("u", "b", F(2), F(1))],
                      terminals={"a": "a", "b": "b"})
    m = terminal_metric(g)
    from spanflow.decompose import Cluster, Solution
    sol = Solution(metric=m, clusters=[
        Cluster(label="t:a", vertices=["a", "u"], rep=m.row("a")),
        Cluster(label="t:b", vertices=["b"], rep=m.row("b")),
    ], by_vertex={"a": 0, "u": 0, "b": 1})
    h = contract(g, sol)
    assert len(h.edges) == 1
    assert h.edges[0].capacity == 2
    assert set(h.terminals.values()) == {"t:a", "t:b"}


def test_cost_and_contract_reject_a_solution_that_misses_a_vertex():
    g = TerminalGraph(vertices=["a", "u", "b"],
                      edges=[("a", "u", F(1), F(1)), ("u", "b", F(2), F(1))],
                      terminals={"a": "a", "b": "b"})
    m = terminal_metric(g)
    sol = Solution(metric=m, clusters=[Cluster(label="t:a", vertices=["a"], rep=m.row("a")),
                                       Cluster(label="t:b", vertices=["b"], rep=m.row("b"))],
                   by_vertex={"a": 0, "b": 1})
    with pytest.raises(GraphError, match=r"^solution does not cover vertices \['u'\]$"):
        cost(project_graph(g), sol)
    with pytest.raises(GraphError, match=r"^solution does not cover vertices \['u'\]$"):
        contract(g, sol)


def test_contract_capacity_conservation(rng):
    m = rand_metric(rng, 4)
    g = graph_from_metric(m, 4, rng)
    emb = project_graph(g)
    dec = Decomposer(emb)
    for seed in range(10):
        sol = dec.solution(seed)
        h = contract(g, sol)
        intra = sum((e.capacity for e in g.edges
                     if sol.cluster_of(e.u) == sol.cluster_of(e.v)), F(0))
        total_g = sum((e.capacity for e in g.edges), F(0))
        total_h = sum((e.capacity for e in h.edges), F(0))
        assert total_h == total_g - intra


def test_cost_and_contract_read_representatives_written_as_strings(rng):
    from spanflow.decompose import Cluster, Solution
    m = rand_type2(rng)[-1]
    g = graph_from_metric(m, 5, rng)
    emb = project_graph(g)
    sol = Decomposer(emb).solution(7)
    text = Solution(metric=m, by_vertex=sol.by_vertex, clusters=[
        Cluster(c.label, c.vertices, {t: str(x) for t, x in c.rep.items()})
        for c in sol.clusters])
    assert cost(emb, text) == cost(emb, sol)
    assert dump_graph(contract(g, text)) == dump_graph(contract(g, sol))
    # a representative missing a coordinate is a MetricError, not a KeyError
    short = Solution(metric=m, by_vertex=sol.by_vertex, clusters=[
        Cluster(c.label, c.vertices, {t: x for t, x in c.rep.items() if t != m.terminals[0]})
        for c in sol.clusters])
    for call in (cost, lambda _, s: contract(g, s)):
        with pytest.raises(MetricError, match="missing coordinates"):
            call(emb, short)


def test_contract_keeps_parallel_edges():
    g = TerminalGraph(vertices=["a", "b"],
                      edges=[("a", "b", F(1), F(2)), ("a", "b", F(3), F(2))],
                      terminals={"a": "a", "b": "b"})
    m = terminal_metric(g)
    from spanflow.decompose import Cluster, Solution
    sol = Solution(metric=m, clusters=[
        Cluster(label="t:a", vertices=["a"], rep=m.row("a")),
        Cluster(label="t:b", vertices=["b"], rep=m.row("b")),
    ], by_vertex={"a": 0, "b": 1})
    h = contract(g, sol)
    assert len(h.edges) == 2
    assert all(e.length == 2 for e in h.edges)


def test_sample_volumes_equal_cost_of_each_solution(rng):
    for builder in (rand_type1, rand_type2, rand_type3):
        m = builder(rng)[-1]
        base = graph_from_metric(m, 5, rng)
        # fractional capacities exercise the common-denominator scaling
        g = TerminalGraph(vertices=base.vertices, terminals=base.terminals,
                          edges=[(u, v, cap / rng.randint(1, 7), length)
                                 for u, v, cap, length in base.edges])
        emb = project_graph(g)
        dec = Decomposer(emb)
        run = sample_volumes(dec, 12, master_seed=3)
        assert len(run.vols) == 12
        for i, vol in enumerate(run.vols):
            assert vol == cost(emb, dec.solution(sample_seed(3, i))).vol


def test_sample_volumes_equal_cost_on_the_planar_goldens():
    scales = set()
    for name, base, model in _sparsify_fixtures():
        if model != "_PlanarModel":
            continue
        g = TerminalGraph(vertices=base.vertices, terminals=base.terminals,
                          edges=[(u, v, cap * F(1 + i % 5, 3 + i % 4), length)
                                 for i, (u, v, cap, length) in enumerate(base.edges)])
        emb = project_graph(g)
        dec = Decomposer(emb)
        scales.add(dec.lattice.S)
        run = sample_volumes(dec, 25, master_seed=11)
        for i, vol in enumerate(run.vols):
            assert vol == cost(emb, dec.solution(sample_seed(11, i))).vol, (name, i)
    assert max(scales) > 1   # the representatives' lattice is not the integers


def _regrouping_decomposers():
    """Decomposers of random multigraphs (Steiner-Steiner, parallel and
    zero-length edges, a self-loop) wherever one builds, and of a fan, a
    folded-plane and a two-rectangle graph."""
    rng = random.Random(2718)
    decs = []
    for _ in range(40):
        g = rand_multigraph(rng, rng.randint(2, 5), rng.randint(3, 9))
        try:
            decs.append(Decomposer(project_graph(g)))
        except MetricError:
            continue   # a zero-length path between two terminals gives no metric
    for rand_shape in (rand_type1, rand_type2, rand_type3):
        decs.append(Decomposer(project_graph(graph_from_metric(rand_shape(rng)[-1], 6, rng))))
    return decs


def test_sample_volumes_equal_a_per_sample_per_edge_reference():
    # the regrouped sums against each sample's own solution, edge by edge
    models, free = set(), 0
    for dec in _regrouping_decomposers():
        emb, S = dec.embedded, dec.lattice.S
        edges = emb.graph.edges
        models.add(type(dec.model).__name__)
        free += sum(u != v and u in dec._dynamic and v in dec._dynamic
                    for u, v, _, _ in edges)
        for n in (1, 2, 30):
            sols = [dec.solution(sample_seed(5, i)) for i in range(n)]
            vols = [cost(emb, sol).vol for sol in sols]
            deltas = [[sol.delta(sol.cluster_of(u), sol.cluster_of(v)) for sol in sols]
                      for u, v, _, _ in edges]
            for per_edge in (False, True):
                run = sample_volumes(dec, n, 5, per_edge=per_edge)
                assert run.ivols == [vol * run.scale for vol in vols]
                if not per_edge:
                    assert run.delta_sums is None and run.delta_squares is None
                    continue
                assert run.delta_sums == [sum(ds) * S for ds in deltas]
                assert run.delta_squares == [sum(d * d for d in ds) * S * S for ds in deltas]
    assert models == {"_TreeModel", "_FanModel", "_PlanarModel"}
    assert free > 0   # edges between two dynamic vertices; the bench corpus has none


def test_sample_volumes_need_a_sample(rng):
    dec = Decomposer(project_graph(graph_from_metric(rand_type1(rng)[-1], 2, rng)))
    for n in (0, -1):
        with pytest.raises(MetricError, match="^need at least one sample$"):
            sample_volumes(dec, n, 3)


def test_expected_cost_needs_two_samples(rng):
    emb = project_graph(graph_from_metric(rand_type1(rng)[-1], 2, rng))
    with pytest.raises(ValueError, match="^need at least two samples$"):
        expected_cost(emb, 1, 3)


def test_a_reachable_missing_anchor_raises(rng):
    dec = Decomposer(project_graph(graph_from_metric(rand_type1(rng)[-1], 4, rng)))
    v, root = next(iter(dec._dynamic.items()))
    dec.nodes[v] = dec._dynamic[v] = _Cut(root.d, root.t, None, root.above)
    missing = "^no anchor for a banded region"
    reached = []
    for seed in range(20):
        try:
            dec.assignment_ids(seed)
            reached.append(False)
        except MetricError as exc:
            assert re.match(missing, str(exc))
            reached.append(True)
    assert any(reached) and not all(reached)
    for per_edge in (False, True):   # sample_seed(0, i) is i
        with pytest.raises(MetricError, match=missing):
            sample_volumes(dec, 20, 0, per_edge=per_edge)


def _mean_and_squared_stderr(values):
    n = len(values)
    mean = sum(values, F(0)) / n
    return mean, sum(((x - mean) ** 2 for x in values), F(0)) / (n * (n - 1))


def _correctly_rounded_sqrt(q, s):
    """s is the float nearest to sqrt(q): sqrt(q) lies within half an ulp of s."""
    half = F(math.ulp(s)) / 2
    return max(F(s) - half, F(0)) ** 2 <= q <= (F(s) + half) ** 2


def test_expected_cost_matches_naive_average(rng):
    m = rand_type2(rng)[-1]
    g = graph_from_metric(m, 3, rng)
    emb = project_graph(g)
    n, master = 40, 21
    rep = expected_cost(emb, n, master_seed=master, per_edge=True)
    dec = Decomposer(emb)
    vols, deltas = [], [[] for _ in g.edges]
    for i in range(n):
        sol = dec.solution(sample_seed(master, i))
        vols.append(cost(emb, sol).vol)
        for ei, (u, v, _, _) in enumerate(g.edges):
            deltas[ei].append(sol.delta(sol.cluster_of(u), sol.cluster_of(v)))
    mean, var = _mean_and_squared_stderr(vols)
    assert rep.mean_vol == mean
    assert var > 0 and _correctly_rounded_sqrt(var, rep.stderr)
    for st, ds, (u, v, _, _) in zip(rep.per_edge, deltas, g.edges):
        em, evar = _mean_and_squared_stderr(ds)
        assert st.mean_delta == em
        assert _correctly_rounded_sqrt(evar, st.stderr)
        assert st.embed_dist == ts_distance(emb.points[u], emb.points[v])


def _extreme_scale_graphs():
    """Per template and per scale 10^40 and 10^-40, a graph whose capacities
    and Steiner lengths have the denominator 7*11*13, all scaled."""
    rng = random.Random(1001)
    for rand_shape in (rand_type1, rand_type2, rand_type3):
        for scale in (F(10 ** 40), F(1, 10 ** 40)):
            base = graph_from_metric(rand_shape(rng)[-1], 4, rng, den=7 * 11 * 13)
            yield TerminalGraph(vertices=base.vertices, terminals=base.terminals,
                                edges=[(u, v, cap * F(rng.randint(1, 1000), 1001) * scale,
                                        length * scale) for u, v, cap, length in base.edges])


def test_per_edge_moments_exact_at_extreme_scales():
    # the int moment sums against a naive Fraction average of every sample,
    # down to two samples
    constant = varying = 0
    for g in _extreme_scale_graphs():
        emb = project_graph(g)
        dec = Decomposer(emb)
        assert (sample_volumes(dec, 30, 9).vols
                == sample_volumes(dec, 30, 9, per_edge=True).vols)
        for n in (2, 30):
            rep = expected_cost(emb, n, master_seed=9, per_edge=True)
            sols = [dec.solution(sample_seed(9, i)) for i in range(n)]
            mean, var = _mean_and_squared_stderr([cost(emb, sol).vol for sol in sols])
            assert rep.mean_vol == mean and _correctly_rounded_sqrt(var, rep.stderr)
            for st in rep.per_edge:
                u, v = st.edge.u, st.edge.v
                ds = [sol.delta(sol.cluster_of(u), sol.cluster_of(v)) for sol in sols]
                em, evar = _mean_and_squared_stderr(ds)
                assert st.mean_delta == em
                assert _correctly_rounded_sqrt(evar, st.stderr)
                if len(set(ds)) == 1:
                    assert st.stderr == 0.0   # exactly, not a rounding residue
                    constant += 1
                else:
                    varying += 1
    assert constant and varying


def test_moment_stats_exact():
    def stats(counted):
        """`moment_stats` of (value, count) pairs, the values as ints on their lcm."""
        (xs,), scale = lattice_ints([[x for x, _ in counted]])
        cs = [c for _, c in counted]
        return moment_stats(sum(c * x for c, x in zip(cs, xs)),
                            sum(c * x * x for c, x in zip(cs, xs)), sum(cs), scale)

    assert stats([(F(5), 1)]) == (F(5), 0.0)
    assert stats([(F(1), 3), (F(1), 2)]) == (F(1), 0.0)
    values = [F(1, 3), F(2), F(2), F(7, 5)]
    mean, stderr = stats([(F(1, 3), 1), (F(2), 2), (F(7, 5), 1)])
    emean, var = _mean_and_squared_stderr(values)
    assert mean == emean
    assert _correctly_rounded_sqrt(var, stderr)
    # perfect squares come out exact, tiny and huge scales keep full precision
    assert stats([(F(0), 1), (F(2), 1)]) == (F(1), 1.0)
    for scale in (F(1, 10 ** 40), F(10 ** 40)):
        _, stderr = stats([(scale, 1), (2 * scale, 2)])
        _, var = _mean_and_squared_stderr([scale, 2 * scale, 2 * scale])
        assert _correctly_rounded_sqrt(var, stderr)
