import random
import re
from fractions import Fraction as F
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import spanflow.tightspan as tightspan
from spanflow.decompose import type1_metric, type2_metric, type3_metric
from spanflow.hard6 import metric6
from spanflow.metric import MetricError, TerminalMetric, check_vector, is_valid_vector
from spanflow.tightspan import (Cell, CellComplex, PointLattice, UnsupportedSizeError,
                                _scaled_constraints, _tight_system, _walk_vertices,
                                enumerate_complex, in_tight_span, int_project,
                                max_cell_dimension, project, to_lattice,
                                ts_distance)

from conftest import rand_metric, rand_valid_vector, tie_metric


def point_in_cell(cx, cell, x):
    """Reference containment in Fractions: x lies in `cell` iff its tight pairs hold."""
    return all(x[a] == 0 if a == b else x[a] + x[b] == cx.metric.d(a, b)
               for a, b in cell.pairs)


def cell_point(cx, cell, fixed):
    """`tightspan.cell_point` for Fraction values by terminal: it runs on the
    constraint scale refined by their denominators, and returns a Vec."""
    ts = cx.metric.terminals
    pins = {ts.index(t): F(v) for t, v in fixed.items()}
    scale = lcm(cx.scale, *(v.denominator for v in pins.values()))
    got = tightspan.cell_point(cx, cell, {i: int(v * scale) for i, v in pins.items()}, scale)
    return None if got is None else {t: F(x, scale) for t, x in zip(ts, got)}


def m3():
    return TerminalMetric.from_pairs({("a", "b"): 7, ("a", "c"): 5, ("b", "c"): 8})


def m_ex2():
    return TerminalMetric.from_pairs(
        {("a", "b"): 7, ("a", "c"): 8, ("a", "d"): 4,
         ("b", "c"): 6, ("b", "d"): 8, ("c", "d"): 5})


def m_all4():
    return TerminalMetric.from_pairs({("a", "b"): 4, ("a", "c"): 4, ("b", "c"): 4})


def test_membership_examples():
    m = m3()
    assert in_tight_span(m, m.vector([0, 7, 5]))
    assert in_tight_span(m, m.vector([1, 6, 4]))
    assert not in_tight_span(m, m.vector([3, 6, 4]))


def test_projection_one_round():
    m = m3()
    assert project(m, m.vector([3, 6, 4])) == m.vector([2, 5, 3])


def test_projection_fixpoint():
    m = m3()
    assert project(m, m.vector([1, 6, 4])) == m.vector([1, 6, 4])


def test_projection_all4_remark():
    m = m_all4()
    assert project(m, m.vector([1, 3, 5])) == m.vector([1, 3, 3])


def test_projection_is_not_nearest_point():
    m = m_all4()
    x = m.vector([1, 3, 5])
    p = project(m, x)
    a = m.vector([0, 4, 4])
    assert ts_distance(x, a) == 1
    assert ts_distance(x, p) == 2


def test_projection_requires_valid_vector():
    m = m3()
    with pytest.raises(MetricError):
        project(m, m.vector([0, 0, 0]))


def test_to_lattice_checks_the_metric_and_every_point():
    x = {"a": 4, "b": 4, "c": 4}
    bad = {
        "triangle": (TerminalMetric(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]]),
                     "triangle violation (a, b, c): 5 > 1 + 1"),
        "asymmetry": (TerminalMetric(["a", "b"], [[0, 1], [2, 0]]),
                      "asymmetry at (a, b): 1 != 2"),
        "diagonal": (TerminalMetric(["a", "b"], [[1, 1], [1, 0]]), "nonzero diagonal at a: 1"),
        "negative": (TerminalMetric(["a", "b"], [[0, -1], [-1, 0]]),
                     "negative distance at (a, b): -1"),
    }
    for m, message in bad.values():
        point = {t: 4 for t in m.terminals}
        for call in (lambda: to_lattice(m, [point]), lambda: in_tight_span(m, point),
                     lambda: project(m, point)):
            with pytest.raises(MetricError, match=rf"^not a pseudometric: {re.escape(message)}"):
                call()
    # distinct terminals at distance zero stay legal here: zero-length edges
    # give them (`project_graph`), though `validate_metric` rejects them
    zero = TerminalMetric(["a", "b", "c"], [[0, 0, 2], [0, 0, 2], [2, 2, 0]])
    assert project(zero, x) == {"a": 1, "b": 1, "c": 1}
    assert in_tight_span(zero, zero.row("a"))
    # every point goes through `check_vector`: coerced, or rejected
    m = m3()
    d, ipts, S = to_lattice(m, [{"c": F(1, 2), "a": "3/4", "b": 1}])
    assert (ipts, S) == ([[3, 4, 2]], 4) and d[0] == [0, 28, 20]
    with pytest.raises(MetricError, match="missing coordinates"):
        to_lattice(m, [{"a": 1, "b": 1}])
    with pytest.raises(MetricError, match="unknown coordinates"):
        to_lattice(m, [{**x, "d": 1}])


def test_membership_and_projection_check_vectors_only_in_to_lattice(monkeypatch):
    calls = []
    real = tightspan.check_vector
    monkeypatch.setattr(tightspan, "check_vector", lambda m, x: calls.append(x) or real(m, x))
    m, x, y = m3(), {"a": 4, "b": 4, "c": 4}, {"a": 5, "b": 5, "c": 5}
    to_lattice(m, [x, y])
    assert calls == [x, y]
    calls.clear()
    project(m, x)
    in_tight_span(m, y)
    assert calls == [x, y]


def test_ts_distance_examples():
    m = m3()
    assert ts_distance(m.vector([1, 6, 4]), m.vector([3, 6, 2])) == 2
    x = m.vector([1, 6, 4])
    assert ts_distance(x, x) == 0
    assert ts_distance(m.row("a"), m.row("b")) == 7
    with pytest.raises(MetricError, match=r"^points live over different terminal sets$"):
        ts_distance(x, {"a": 1, "b": 6, "d": 4})


def test_point_inputs_are_exact():
    with pytest.raises(MetricError):
        ts_distance({"a": 0.1}, {"a": F(1, 10)})
    assert ts_distance({"a": "1/10"}, {"a": F(1, 5)}) == F(1, 10)
    cx = enumerate_complex(m3())
    with pytest.raises(MetricError):
        cx.vertex_id({"a": 2, "b": 5})
    with pytest.raises(MetricError):
        cx.vertex_id({"a": 2.0, "b": 5, "c": 3})
    assert cx.vertex_id({"a": "2", "b": 5, "c": F(3)}) is not None


def test_two_point_complex():
    m = TerminalMetric.from_pairs({("a", "b"): F(5, 2)})
    cx = enumerate_complex(m)
    assert len(cx.vertices) == 2
    cells = [c for c in cx.cells]
    assert len(cells) == 1 and cells[0].dim == 1
    v0, v1 = cells[0].vertex_ids
    assert ts_distance(cx.vertices[v0], cx.vertices[v1]) == F(5, 2)


def test_example1_complex():
    cx = enumerate_complex(m3())
    assert len(cx.vertices) == 4
    assert cx.vertex_id({"a": 2, "b": 5, "c": 3}) is not None
    one_cells = [c for c in cx.cells if c.dim == 1]
    assert len(one_cells) == 3
    lengths = sorted(ts_distance(cx.vertices[c.vertex_ids[0]],
                                 cx.vertices[c.vertex_ids[1]]) for c in one_cells)
    assert lengths == [2, 3, 5]
    assert max_cell_dimension(cx) == 1


def test_example2_complex():
    cx = enumerate_complex(m_ex2())
    pend = sorted(ts_distance(cx.vertices[c.vertex_ids[0]],
                              cx.vertices[c.vertex_ids[1]])
                  for c in cx.cells if c.dim == 1)
    assert pend == [F(1, 2), F(3, 2), F(3, 2), F(5, 2)]
    rect = [c for c in cx.cells if c.dim == 2]
    assert len(rect) == 1
    assert rect[0].pairs == (("a", "c"), ("b", "d"))
    corners = [cx.vertices[i] for i in rect[0].vertex_ids]
    dists = sorted(ts_distance(p, q) for i, p in enumerate(corners)
                   for q in corners[i + 1:])
    assert dists == [2, 2, 3, 3, 5, 5]  # sides 3 and 2, equal diagonals
    assert max_cell_dimension(cx) == 2


def test_size_limit():
    rng = random.Random(1)
    m = rand_metric(rng, 7)
    with pytest.raises(UnsupportedSizeError):
        enumerate_complex(m)


def test_projection_properties_sampled(rng):
    for _ in range(120):
        k = rng.randint(3, 6)
        m = rand_metric(rng, k)
        x = rand_valid_vector(rng, m)
        y = rand_valid_vector(rng, m)
        px, py = project(m, x), project(m, y)
        assert in_tight_span(m, px) and in_tight_span(m, py)
        assert ts_distance(px, py) <= ts_distance(x, y)
        assert all(px[t] <= x[t] for t in m.terminals)
        if in_tight_span(m, x):
            assert px == x


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(3, 6))
def test_projection_contract(seed, k):
    rng = random.Random(seed)
    m = rand_metric(rng, k)
    x = rand_valid_vector(rng, m)
    y = rand_valid_vector(rng, m)
    px, py = project(m, x), project(m, y)
    assert in_tight_span(m, px)
    assert ts_distance(px, py) <= ts_distance(x, y)
    assert all(px[t] <= x[t] for t in m.terminals)


# -- int membership and projection against the Fraction loops -----------------

def _in_tight_span_reference(m, x):
    """Membership in Fractions: valid, and every nonzero coordinate in a tight pair."""
    v = check_vector(m, x)
    if not is_valid_vector(m, v):
        return False
    for t in m.terminals:
        if v[t] == 0:
            continue
        if not any(u != t and v[t] + v[u] == m.d(t, u) for u in m.terminals):
            return False
    return True


def _project_reference(m, x):
    """The projection loop in Fractions: active coordinates drop together."""
    v = check_vector(m, x)
    if not is_valid_vector(m, v):
        raise MetricError("projection requires a valid vector")
    ts = m.terminals
    active = set(ts)
    while active:
        delta = None
        freeze = []
        for t in active:
            best = v[t]
            for u in ts:
                if u == t:
                    continue
                slack = v[t] + v[u] - m.d(t, u)
                if u in active:
                    slack = slack / 2
                if slack < best:
                    best = slack
            if delta is None or best < delta:
                delta = best
                freeze = [t]
            elif best == delta:
                freeze.append(t)
        for t in active:
            v[t] -= delta
        active.difference_update(freeze)
    return v


def test_int_membership_and_projection_match_the_fraction_loops():
    rng = random.Random(4242)
    dens = (1, 2, 3, 5, 8, 12)
    seen = {"odd_slack": 0, "in_span": 0, "outside": 0, "invalid": 0}
    for k in range(2, 7):
        for trial in range(12):
            names = "abcdef"[:k]
            m = (tie_metric(rng, k) if trial % 4 == 0 else TerminalMetric.from_pairs(
                {(a, b): F(rng.randint(den, 2 * den), den)
                 for a, b in combinations(names, 2) for den in [rng.choice(dens)]},
                terminals=names))
            for _ in range(6):
                n = rng.choice((1, 2, 3, 7, 9))
                x = {}
                for t in m.terminals:
                    hi = max(m.d(t, u) for u in m.terminals)
                    x[t] = hi / 2 + F(rng.randint(0, 2 * n), 2 * n) * hi / 2
                d, (ix,), _ = to_lattice(m, [x])
                if any((ix[i] + ix[j] - d[i][j]) % 2 for i, j in combinations(range(k), 2)):
                    seen["odd_slack"] += 1
                px = _project_reference(m, x)
                bad = dict(x)
                bad[rng.choice(m.terminals)] -= F(rng.randint(1, 3 * n), n)
                for y in (x, px, bad):
                    member = _in_tight_span_reference(m, y)
                    assert in_tight_span(m, y) == member, (m, y)
                    seen["in_span" if member else "outside"] += 1
                    if is_valid_vector(m, y):
                        assert project(m, y) == _project_reference(m, y), (m, y)
                        continue
                    seen["invalid"] += 1
                    with pytest.raises(MetricError, match="requires a valid vector"):
                        project(m, y)
    assert min(seen.values()) > 50, seen
    # a slack that is odd on the projection's lattice raises instead of flooring
    with pytest.raises(ArithmeticError):
        int_project([[0, 3], [3, 0]], [2, 2])


def test_complex_invariants(rng):
    for _ in range(8):
        k = rng.randint(2, 5)
        m = rand_metric(rng, k)
        cx = enumerate_complex(m)
        # vertices sit in the span; cells satisfy their equalities exactly
        for v in cx.vertices:
            assert in_tight_span(m, v)
        for cell in cx.cells:
            touched = set()
            for a, b in cell.pairs:
                touched.update((a, b))
            assert touched == set(m.terminals)
            for vid in cell.vertex_ids:
                assert point_in_cell(cx, cell, cx.vertices[vid])
        # random projected points land in at least one cell
        for _ in range(10):
            p = project(m, rand_valid_vector(rng, m))
            assert any(point_in_cell(cx, c, p) for c in cx.cells)
        # convex combinations of cell vertices stay in the span
        for cell in cx.cells:
            ids = cell.vertex_ids
            w = [rng.randint(1, 5) for _ in ids]
            tot = sum(w)
            mix = {t: sum(F(wi) * cx.vertices[i][t] for wi, i in zip(w, ids)) / tot
                   for t in m.terminals}
            assert in_tight_span(m, mix)


def test_six_point_dimension_cap(rng):
    dims = set()
    for _ in range(8):
        m = rand_metric(rng, 6)
        dims.add(max_cell_dimension(enumerate_complex(m)))
    assert max(dims) <= 3


def test_terminal_rows_are_vertices():
    cx = enumerate_complex(m_ex2())
    for t in cx.metric.terminals:
        assert cx.vertex_id(cx.metric.row(t)) is not None


def test_json_export_shape():
    cx = enumerate_complex(m3())
    d = cx.to_json_dict()
    assert d["terminals"] == ["a", "b", "c"]
    assert len(d["vertices"]) == 4
    assert all(set(c) == {"pairs", "dim", "vertices", "adjacent"} for c in d["cells"])


def _gauss(cons, k):
    """Rank, consistency and unique solution of a tight system, by Fraction
    Gauss-Jordan elimination; (i, i, r) stands for 2 x_i = r."""
    rows = []
    for i, j, r in cons:
        row = [F(0)] * (k + 1)
        row[i] += 1
        row[j] += 1
        row[k] = F(r)
        rows.append(row)
    rank = 0
    for col in range(k):
        piv = next((n for n in range(rank, len(rows)) if rows[n][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for n, row in enumerate(rows):
            if n != rank and row[col]:
                f = row[col] / top[col]
                rows[n] = [a - f * b for a, b in zip(row, top)]
        rank += 1
    consistent = all(row[k] == 0 for row in rows[rank:])
    solution = None
    if consistent and rank == k:
        solution = [rows[c][k] / rows[c][c] for c in range(k)]
    return rank, consistent, solution


def _check_tight_system(cons, k, seen):
    values, free, signs = _tight_system(cons, k)
    rank, consistent, solution = _gauss(cons, k)
    if not consistent:
        assert values is None, cons
        seen["inconsistent"] += 1
        return
    assert free == k - rank, cons
    assert values == solution, cons
    # the signs solve the homogeneous system and are zero exactly on the
    # coordinates that the system pins
    assert all(signs[i] + signs[j] == 0 for i, j, _ in cons), cons
    pinned = [c for c in range(k)
              if _gauss(list(cons) + [(c, c, 0)], k)[0] == rank]
    assert [c for c in range(k) if signs[c] == 0] == pinned, cons
    seen["unique" if solution else "singular"] += 1


def test_tight_system_matches_gaussian_elimination():
    seen = {"inconsistent": 0, "unique": 0, "singular": 0}
    # triangle (odd cycle), square (even cycle), square with a self constraint
    _check_tight_system([(0, 1, 6), (1, 2, 4), (0, 2, 8)], 3, seen)
    _check_tight_system([(0, 1, 6), (1, 2, 4), (2, 3, 8), (0, 3, 10)], 4, seen)
    _check_tight_system([(0, 1, 6), (1, 2, 4), (2, 3, 8), (0, 3, 10), (2, 2, 0)],
                        4, seen)
    _check_tight_system([(0, 1, 6), (1, 2, 4), (2, 3, 8), (0, 3, 12)], 4, seen)
    assert seen == {"inconsistent": 1, "unique": 2, "singular": 1}
    rng = random.Random(5)
    for k in range(2, 7):
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        for _ in range(400):
            cons = rng.sample(pairs, rng.randint(1, min(len(pairs), k + 2)))
            # right-hand sides from a hidden point, as the scaled enumeration
            # sees them (even), sometimes with one side moved off it; a self
            # side is 2 * (x_i + x_i), as cell_point pins a coordinate
            x = [rng.choice((0, rng.randint(1, 9))) for _ in range(k)]
            rhs = [2 * (x[i] + x[j]) for i, j in cons]
            if rng.random() < 0.3:
                n = rng.randrange(len(cons))
                rhs[n] += 2 * rng.randint(1, 3)
            _check_tight_system([(i, j, r) for (i, j), r in zip(cons, rhs)], k, seen)
    assert min(seen.values()) > 100, seen


def test_tight_system_rejects_half_integral_vertex():
    # the unique solution (1/2, 1/2, -1/2) is not integral: not a lattice vertex
    assert _gauss([(0, 1, 1), (1, 2, 0), (0, 2, 0)], 3)[2] == [F(1, 2), F(1, 2), F(-1, 2)]
    assert _tight_system([(0, 1, 1), (1, 2, 0), (0, 2, 0)], 3)[0] is None


# -- the edge walk against the brute-force enumeration ------------------------

def brute_force_complex(m):
    """The reference enumeration: a tight system for every k-subset of the
    constraints that touches every coordinate, then the closure of all
    intersections of vertex tight sets, filtered to the bounded ones."""
    k = len(m.terminals)
    cons, scale = _scaled_constraints(m)
    masks = [(1 << i) | (1 << j) for i, j, _ in cons]
    full = (1 << k) - 1
    verts = set()
    for combo in combinations(range(len(cons)), k):
        mask = 0
        for c in combo:
            mask |= masks[c]
        if mask != full:
            continue
        sol = _tight_system([cons[c] for c in combo], k)[0]
        if sol is not None and all(sol[i] + sol[j] >= r for i, j, r in cons):
            verts.add(tuple(sol))
    vlist = sorted(verts)
    tight_sets = [frozenset(c for c, (i, j, r) in enumerate(cons) if v[i] + v[j] == r)
                  for v in vlist]
    closure = set(tight_sets)
    frontier = list(closure)
    while frontier:
        fresh = {a & b for a in frontier for b in tight_sets} - closure
        closure |= fresh
        frontier = list(fresh)
    faces = []
    for a in closure:
        touched = 0
        for c in a:
            touched |= masks[c]
        if touched == full:
            faces.append(a)
    maximal = [a for a in faces if not any(b < a for b in faces)]

    def pair_names(cids):
        return tuple(sorted((m.terminals[cons[c][0]], m.terminals[cons[c][1]])
                            for c in cids))

    def system(cids):
        """The face's constraints, in the order of their pair names."""
        return tuple(sorted((cons[c] for c in cids),
                            key=lambda c: (m.terminals[c[0]], m.terminals[c[1]])))

    ordered = sorted(maximal, key=pair_names)
    members = [tuple(i for i, tset in enumerate(tight_sets) if tset >= a)
               for a in ordered]
    cells = tuple(
        Cell(pairs=pair_names(a), dim=_tight_system([cons[c] for c in a], k)[1],
             vertex_ids=mem,
             adjacent=tuple(j for j, other in enumerate(members)
                            if j != n and set(mem).intersection(other)),
             system=system(a))
        for n, (a, mem) in enumerate(zip(ordered, members)))
    return CellComplex(metric=m, ivertices=tuple(vlist), cells=cells,
                       cons=tuple(cons), scale=scale)


def _reference_corpus():
    rng = random.Random(17)
    out = []
    for k, count in ((2, 4), (3, 8), (4, 8), (5, 6), (6, 3)):
        for den in (1000, 8):
            out += [(f"rand k={k} den={den}", rand_metric(rng, k, den=den))
                    for _ in range(count)]
    for k, count in ((3, 8), (4, 8), (5, 6), (6, 4)):
        out += [(f"ties k={k}", tie_metric(rng, k)) for _ in range(count)]
    out.append(("metric6", metric6()))
    names = "abcdef"
    out.append(("all-equal k=6", TerminalMetric.from_pairs(
        {(t, u): 2 for t, u in combinations(names, 2)}, terminals=list(names))))
    pend = {"a": 1, "b": F(3, 2), "c": 2, "d": F(1, 2), "e": 1}
    out.append(("type1", type1_metric(pend, {("a", "b"): 2, ("b", "c"): 1,
                                             ("c", "d"): 3, ("d", "e"): F(5, 2),
                                             ("e", "a"): 1})))
    out.append(("type2", type2_metric(7, 6, 2, 1, F(3, 2), pend)))
    out.append(("type3", type3_metric(2, 3, 1, 2, F(3, 2), pend)))
    return out


def test_edge_walk_matches_brute_force():
    dims = set()
    for label, m in _reference_corpus():
        cx = enumerate_complex(m)
        assert cx == brute_force_complex(m), label
        dims.add((len(m.terminals), max_cell_dimension(cx)))
    # the corpus reaches 3-cells at k=6 and 2-cells at k=4 and 5
    assert {(4, 2), (5, 2), (6, 3)} <= dims


def test_all_equal_metric_centre():
    # every pair is tight at the centre, the most degenerate vertex
    names = list("abcdef")
    m = TerminalMetric.from_pairs({(t, u): 2 for t, u in combinations(names, 2)},
                                  terminals=names)
    cx = enumerate_complex(m)
    assert len(cx.vertices) == 7
    centre = cx.vertex_id({t: 1 for t in names})
    assert centre is not None
    assert all(c.dim == 1 and centre in c.vertex_ids for c in cx.cells)
    assert len(cx.cells) == 6


def test_walk_rejects_a_non_integral_step():
    # all distances 1 at scale 1: the centre (1/2, 1/2, 1/2) is off the lattice
    cons = [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 0, 0), (1, 1, 0), (2, 2, 0)]
    with pytest.raises(ArithmeticError):
        _walk_vertices(cons, 3)
    # at scale 4 the same walk finds the centre, as the enumeration does
    scaled = [(i, j, 4 * r) for i, j, r in cons]
    assert (2, 2, 2) in _walk_vertices(scaled, 3)
    m = TerminalMetric.from_pairs({("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1})
    assert enumerate_complex(m).vertex_id({t: F(1, 2) for t in "abc"}) is not None


def test_walk_solves_few_tight_systems(monkeypatch):
    # brute_force_complex solves 27,367 systems for metric6 and 27,381 for
    # the random metric; the walk solves a few per vertex and one per cell
    calls = [0]
    real = tightspan._tight_system

    def counting(cons, k):
        calls[0] += 1
        return real(cons, k)

    monkeypatch.setattr(tightspan, "_tight_system", counting)
    for m in (metric6(), rand_metric(random.Random(3), 6)):
        calls[0] = 0
        enumerate_complex(m)
        assert 0 < calls[0] < 2000


def test_point_lattice_matches_ts_distance(rng):
    dens = (1, 2, 3, 4, 6, 7, 10)
    pts = [tuple(F(rng.randint(-40, 40), rng.choice(dens)) for _ in range(5))
           for _ in range(12)]
    pts += [pts[0], pts[7]]   # repeated points sit at distance 0
    lat = PointLattice.of(pts)
    assert lat.S == lcm(*(x.denominator for p in pts for x in p))
    for i, j in product(range(len(pts)), repeat=2):
        d = lat.dist(i, j)
        assert type(d) is int and d == lat.dist(i, j)
        assert lat.frac[d] == ts_distance(dict(enumerate(pts[i])), dict(enumerate(pts[j])))
    assert lat.dist(0, len(pts) - 2) == lat.dist(7, len(pts) - 1) == 0
    assert lat.frac[3] is lat.frac[3] and lat.frac[3] == F(3, lat.S)
    assert PointLattice.of([]).S == 1


# -- cell_point ----------------------------------------------------------------

def _mix(p, q, w):
    """The point p + w * (q - p): between p and q for w in [0, 1], past p for w < 0."""
    return {t: p[t] + w * (q[t] - p[t]) for t in p}


def test_cell_point_contract(rng):
    weights = (F(1, 2), F(1, 3), F(5, 7), F(1, 9000))
    seen = {"charts": 0, "fine_pins": 0, "past": 0}
    for k, den in product((4, 5), (1000, 8)):
        for _ in range(6):
            m = rand_metric(rng, k, den=den)
            cx = enumerate_complex(m)
            walk_scale = _scaled_constraints(m)[1]
            for cell in (c for c in cx.cells if c.dim == 2):
                V = [cx.vertices[i] for i in cell.vertex_ids]

                def solve(p, ts):
                    got = cell_point(cx, cell, {t: p[t] for t in ts})
                    if got is not None:
                        assert point_in_cell(cx, cell, got) and in_tight_span(m, got)
                    return got

                charts = [ts for ts in combinations(m.terminals, 2)
                          if solve(V[0], ts) is not None]
                assert charts, cell
                seen["charts"] += len(charts)
                for ts in charts:
                    assert all(solve(v, ts) == v for v in V)
                    for (p, q), w in product(combinations(V, 2), weights):
                        mid = _mix(p, q, w)
                        assert solve(mid, ts) == mid
                        if any(walk_scale % mid[t].denominator for t in ts):
                            seen["fine_pins"] += 1
                        # p is a vertex, so the cell stops at p on the line from q
                        assert solve(_mix(p, q, -w), ts) is None
                        seen["past"] += 1
                for t in m.terminals:
                    assert solve(V[0], (t,)) is None
    assert min(seen.values()) > 50, seen


def test_cell_point_pins_every_coordinate_of_a_vertex():
    for m in (m3(), m_ex2(), metric6()):
        cx = enumerate_complex(m)
        for cell in cx.cells:
            for vid in cell.vertex_ids:
                assert cell_point(cx, cell, cx.vertices[vid]) == cx.vertices[vid]
            # every coordinate sits in a tight pair, so moving one breaks it
            v = cx.vertices[cell.vertex_ids[0]]
            for t in m.terminals:
                assert cell_point(cx, cell, {**v, t: v[t] + F(1, 3)}) is None
