from fractions import Fraction as F

import pytest

from spanflow.hard6 import (TERMS, AssocVec, CandidateSolution, _Lattice, _adjusted_table,
                            adjust_solution, check_good, diagnose, from_assoc, generate, grid_snap,
                            identity_solution, metric6, rect_project, to_assoc)
from spanflow.metric import MetricError, collinear_triples, pair_key, restrict, validate_metric
from spanflow.tightspan import (enumerate_complex, in_tight_span, project, to_lattice,
                                ts_distance)


def exact_deltas():
    m = metric6()
    return {(t, u): m.d(t, u) for i, t in enumerate(m.terminals)
            for u in m.terminals[i + 1:]}


def test_metric6_table():
    m = metric6()
    assert validate_metric(m) == []
    assert m.d("a", "d") == m.d("b", "e") == m.d("c", "f") == 3
    for t in "abde":
        assert m.d("c", t) + m.d(t, "f") == 3
    assert m.d("a", "b") == 2 and m.d("a", "e") == 1 and m.d("d", "f") == 1


def test_assoc_terminals():
    m = metric6()
    assert to_assoc(m.row("a")) == (0, 0, 1)
    assert to_assoc(m.row("c")) == (0, 0, 0)
    assert to_assoc(m.row("e")) == (1, 0, 1)
    assert to_assoc({"a": 1, "b": 1, "c": 2, "d": 2, "e": 2, "f": 1}) == (0, 2, 0)
    assert to_assoc({"a": 2, "b": 2, "c": 1, "d": 1, "e": 1, "f": 2}) == (1, 0, 0)


def test_assoc_rejects_outside_points():
    with pytest.raises(MetricError):
        to_assoc({"a": 0, "b": 0, "c": 0, "d": 0, "e": 0, "f": 0})
    with pytest.raises(MetricError):
        from_assoc(AssocVec(F(1, 2), F(2), F(1)))
    with pytest.raises(MetricError, match=r"^planar point .* outside the admissible region$"):
        from_assoc(AssocVec(F(3), F(0), F(0)))
    # c's row with f moved off the span: its coordinates are c's, admissible
    off = {**metric6().row("c"), "f": 4}
    with pytest.raises(MetricError, match="^point is not in the span of the 6-terminal metric$"):
        to_assoc(off)


def span_points(rng, per_cell):
    """Every vertex of the six-terminal span and seeded convex combinations of
    the vertices of each of its cells."""
    cx = enumerate_complex(metric6())
    pts = list(cx.vertices)
    for cell in cx.cells:
        corners = [cx.vertices[i] for i in cell.vertex_ids]
        for _ in range(per_cell):
            w = [rng.randint(0, 12) for _ in corners]
            w[rng.randrange(len(w))] += 1
            pts.append({t: sum((F(n, sum(w)) * c[t] for n, c in zip(w, corners)), F(0))
                        for t in TERMS})
    return pts


def test_int_assoc_coordinates_match_to_assoc(rng):
    # the ints the diagnostics read, 2S·x = p_b - p_d + S and the planar
    # 2S·(y + z) = 2·p_c - 2S·x, against to_assoc and rect_project
    m = metric6()
    pts = span_points(rng, 300)
    _, ipts, S = to_lattice(m, pts)
    for p, (_, b, c, d, _, _) in zip(pts, ipts):
        a, r = to_assoc(p), to_assoc(rect_project(p))
        assert b - d + S == 2 * S * a.x == 2 * S * r.x
        assert 2 * c - (b - d + S) == 2 * S * r.y and r.z == 0
    # and `_Lattice.xs` on a candidate mapping the grid onto those points
    inst = generate(8)
    term_ids = set(inst.graph.terminals.values())
    f = {vid: dict(vec if vid in term_ids else pts[n % len(pts)])
         for n, (vid, vec) in enumerate(inst.vecs.items())}
    lat = _Lattice(inst, CandidateSolution(f=f))
    assert len(lat.points) > 300
    for x, p in zip(lat.xs, lat.points):
        assert x == 2 * lat.S * to_assoc(dict(zip(TERMS, p))).x


def test_rect_project_examples():
    m = metric6()
    e = rect_project(m.row("e"))
    assert to_assoc(e) == (1, 1, 0)
    assert ts_distance(e, m.row("c")) == 2 == m.d("c", "e")
    assert to_assoc(rect_project(m.row("a"))) == (0, 1, 0)
    flat = from_assoc(AssocVec(F(1, 2), F(1), F(0)))
    assert rect_project(flat) == flat


def test_rect_project_is_generic_projection_on_bcdf(rng):
    m = metric6()
    m4 = restrict(m, ["b", "c", "d", "f"])
    for _ in range(30):
        x = F(rng.randint(0, 8), 8)
        z = F(rng.randint(0, 8), 8)
        y = F(rng.randint(0, 4), 4) * (2 - 2 * z) / 1
        if y + 2 * z > 2:
            continue
        p = from_assoc(AssocVec(x, y, z))
        q = rect_project(p)
        generic = project(m4, {t: p[t] for t in ("b", "c", "d", "f")})
        assert {t: q[t] for t in ("b", "c", "d", "f")} == generic
        assert p["c"] == q["c"] and p["f"] == q["f"]
        assert p["b"] - p["d"] == q["b"] - q["d"]


def test_rect_project_nonexpanding(rng):
    inst = generate(4)
    ids = list(inst.index)
    for _ in range(200):
        u, v = rng.choice(ids), rng.choice(ids)
        pu, pv = inst.vecs[u], inst.vecs[v]
        assert ts_distance(rect_project(pu), rect_project(pv)) <= ts_distance(pu, pv)


def test_generate_requires_l_at_least_two():
    with pytest.raises(MetricError):
        generate(1)


def count_group(L):
    all_sq = (L + 1) ** 2
    tri = (L + 1) * (L + 2) // 2
    d4 = tri + (all_sq - tri) + (tri - (L + 1))
    return {"ad1": all_sq, "be1": all_sq, "ad2": all_sq, "be2": all_sq,
            "ad3": tri, "be3": tri, "cf3": tri, "ab": tri, "de": tri,
            "ad4": d4, "be4": d4, "cf4": d4}


def test_path_counts_match_range_enumeration():
    L = 2
    inst = generate(L)
    counts = {}
    for p in inst.paths:
        counts[p.group] = counts.get(p.group, 0) + 1
    assert counts == count_group(L)
    # unique names, and no stuttering vertices within a path
    names = [p.name for p in inst.paths]
    assert len(names) == len(set(names))
    for p in inst.paths:
        assert all(u != v for u, v in zip(p.vertex_ids, p.vertex_ids[1:]))


def test_paths_geodesic_and_grid_small():
    inst = generate(5)
    m = inst.metric
    for p in inst.paths:
        ids = p.vertex_ids
        total = sum((ts_distance(inst.vecs[u], inst.vecs[v])
                     for u, v in zip(ids, ids[1:])), F(0))
        assert total == m.d(p.source, p.sink)
    # main-segment steps measure exactly 1/L
    for p in inst.paths:
        for u, v in zip(p.vertex_ids[1:-1], p.vertex_ids[2:-1]):
            assert ts_distance(inst.vecs[u], inst.vecs[v]) == F(1, inst.L)


def test_span_distance_equals_critical_direction_travel(rng):
    # independent oracle: distance = least total travel along the four
    # step directions (one free parameter; minimum at a breakpoint)
    inst = generate(5)

    def travel(a, b):
        dx, dy, dz = b.x - a.x, b.y - a.y, b.z - a.z

        def cost(tau):
            return (abs(dz + dy / 2 - tau) + abs(dy / 2 - tau)
                    + abs(dx + tau) + abs(tau))
        return min(cost(t) for t in {F(0), -dx, dy / 2, dz + dy / 2})

    ids = list(inst.vecs)
    for _ in range(800):
        u, v = rng.choice(ids), rng.choice(ids)
        assert travel(to_assoc(inst.vecs[u]), to_assoc(inst.vecs[v])) \
            == ts_distance(inst.vecs[u], inst.vecs[v])


def test_opt_equals_edge_shortest_path_sum():
    # every edge is itself a shortest path, so opt sums edge lengths
    from spanflow.graphs import shortest_distances
    inst = generate(4)
    g = inst.graph
    opt = F(0)
    dists = {}
    for u, v, cap, length in g.edges:
        if u not in dists:
            dists[u] = shortest_distances(g, u)
        assert dists[u][v] == length
        opt += cap * length
    assert opt == inst.opt()


def test_vertex_formulas_and_membership():
    # from_assoc rejects a point outside the admissible region, so every
    # walk's index ranges keep its grid points inside it
    for L in (2, 3, 4, 7):
        inst = generate(L)
        for vid, a in ref_assoc(inst).items():
            assert from_assoc(a) == inst.vecs[vid]
            assert to_assoc(inst.vecs[vid]) == a
        for vid in ("b", "d"):
            assert in_tight_span(inst.metric, inst.vecs[vid])


def test_adjusted_table_keeps_every_collinear_triple():
    # the table is linear in (A, B): exact at (1, 0) and (0, 1), so at every (A, B)
    triples = collinear_triples(metric6())
    assert len(triples) == 16
    for A, B in ((F(1), F(0)), (F(0), F(1))):
        table = _adjusted_table(A, B)
        for t, mid, u in triples:
            assert table[pair_key(t, mid)] + table[pair_key(mid, u)] == table[pair_key(t, u)]


def test_opt_bound():
    # boundary rows make opt exceed 90 L^2 at L = 2; the bound holds from 3 up
    for L in (3, 5, 8):
        inst = generate(L)
        assert inst.opt() <= 90 * L * L
    assert generate(2).opt() > 90 * 4


def test_identity_solution_zero_loss():
    inst = generate(4)
    rep = diagnose(inst, identity_solution(inst)).losses
    assert rep.total == 0
    assert all(p.excess == 0 for p in rep.per_path)


def test_all_to_c_solution_positive_loss():
    inst = generate(4)
    m = inst.metric
    term_ids = set(inst.graph.terminals.values())
    f = {vid: (dict(vec) if vid in term_ids else m.row("c"))
         for vid, vec in inst.vecs.items()}
    rep = diagnose(inst, CandidateSolution(f=f)).losses
    assert rep.total > 0
    assert all(p.loss >= 0 for p in rep.per_path)


def test_losses_requires_cover():
    inst = generate(3)
    sol = identity_solution(inst)
    del sol.f["b"]
    with pytest.raises(MetricError):
        diagnose(inst, sol)


def test_grid_snap_properties():
    inst = generate(6)
    for g in (1, 2, 3):
        sol = grid_snap(inst, g)
        dg = diagnose(inst, sol)
        assert dg.image_size <= (g + 1) ** 3 + 6
        assert dg.losses.total > 0
    assert diagnose(inst, grid_snap(inst, 6)).losses.total == 0
    assert diagnose(inst, grid_snap(inst, 12)).losses.total == 0


def test_snap_loss_monotone_in_grid():
    inst = generate(12)
    totals = [diagnose(inst, grid_snap(inst, g)).losses.total for g in (1, 2, 3, 4, 6, 12)]
    assert totals[0] > 0
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    assert totals[-1] == 0
    assert diagnose(inst, grid_snap(inst, 24)).losses.total == 0


def test_snap_loss_total_matches_two_route(rng):
    inst = generate(4)
    sol = grid_snap(inst, 2)
    rep = diagnose(inst, sol).losses
    direct = sum((cap * ts_distance(sol.f[u], sol.f[v])
                  for u, v, cap, _ in inst.graph.edges), F(0))
    assert rep.total == direct - inst.opt()


def test_directional_losses_identity_zero():
    inst = generate(4)
    sol = identity_solution(inst)
    dr = diagnose(inst, sol).directional
    # geodesic telescoping: every aggregate-bound term vanishes exactly
    fwd, bwd, aggregates, _ = ref_directional(inst, sol)
    tables = {"fwd": fwd, "bwd": bwd}
    assert all(tables[tbl][(vid, d, t)] == 0 for vid, d, _ in fwd
               for tbl, t in REF_TERMS[d])
    assert all(lhs == rhs == 0 for _, lhs, rhs in dr.aggregates)
    assert dr.aggregates == aggregates
    assert dr.x_bounds_ok


def test_directional_losses_nonnegative_and_aggregates(rng):
    inst = generate(4)
    sol = grid_snap(inst, 1)
    dr = diagnose(inst, sol).directional
    fwd, bwd, _, _ = ref_directional(inst, sol)
    assert all(v >= 0 for v in fwd.values())
    assert all(v >= 0 for v in bwd.values())
    for label, lhs, rhs in dr.aggregates:
        assert lhs >= rhs
    assert dr.x_bounds_ok


def test_planar_losses_claims(rng):
    inst = generate(4)
    m = inst.metric
    pts = [m.row("c"), from_assoc(AssocVec(F(1, 2), F(1), F(0))),
           from_assoc(AssocVec(F(1, 2), F(0), F(1, 2))), m.row("f")]
    term_ids = set(inst.graph.terminals.values())
    f = {vid: (dict(vec) if vid in term_ids else dict(rng.choice(pts)))
         for vid, vec in inst.vecs.items()}
    for sol in (identity_solution(inst), grid_snap(inst, 1), CandidateSolution(f=f)):
        pr = diagnose(inst, sol).planar
        assert pr.step_bound_failures == []
        assert pr.transfer_bound_failures == []
        assert pr.bound_lhs >= pr.bound_rhs
    pr = diagnose(inst, identity_solution(inst)).planar
    assert pr.bound_lhs == pr.bound_rhs == 0
    assert all(v == 0 for v in pr.table.values())


def test_ave_demand_and_triples():
    inst = generate(3, ave=True, gamma=F(1, 1000))
    m = inst.metric
    triples = collinear_triples(m)
    assert len(inst.ave.triple_paths) == len(triples)
    weight = F(9)
    expected = {}
    for p in inst.paths + inst.ave.triple_paths:
        key = tuple(sorted((p.source, p.sink)))
        expected[key] = expected.get(key, F(0)) + p.capacity
    expected[("a", "e")] = expected.get(("a", "e"), F(0)) + F(1, 1000) * weight
    assert inst.ave.demand.entries == expected
    for p in inst.ave.triple_paths:
        assert p.capacity == weight


def test_check_good():
    inst = generate(2, ave=True)
    deltas = exact_deltas()
    assert check_good(inst, deltas, F(1, 10 ** 9)).good
    assert check_good(inst, deltas, 0).good  # exact equalities never violate
    raised = dict(deltas)
    eta = F(1, 10 ** 9)
    raised[("a", "e")] = deltas[("a", "e")] + 2 * eta
    rep = check_good(inst, raised, eta)
    assert not rep.good
    assert any("(a, e," in v or "e," in v for v in rep.violations)
    # a pair given in both orders must carry one value
    with pytest.raises(MetricError, match=r"conflicting values .* for pair \(b, a\)"):
        check_good(inst, {**deltas, ("b", "a"): deltas[("a", "b")] + 1}, eta)
    assert check_good(inst, {**deltas, ("b", "a"): deltas[("a", "b")]}, eta).good


def test_check_good_and_adjust_solution_errors():
    deltas = exact_deltas()
    del deltas[("c", "d")]
    with pytest.raises(MetricError, match=r"^missing delta for pair \(c, d\)$"):
        check_good(generate(2, ave=True), deltas, 0)
    plain = generate(2)
    with pytest.raises(MetricError, match="^check_good needs an average-version instance$"):
        check_good(plain, exact_deltas(), 0)
    with pytest.raises(MetricError,
                       match="^adjust_solution needs an average-version instance$"):
        adjust_solution(plain, grid_snap(plain, 1), exact_deltas(), 0)


def test_adjust_solution_exact_input():
    inst = generate(3, ave=True)
    sol = grid_snap(inst, 2)
    eta = F(1, 10 ** 9)
    adj = adjust_solution(inst, sol, exact_deltas(), eta)
    assert adj.image_size_after <= adj.image_size_before + 6
    assert adj.cost_after <= (1 + 30 * eta) * adj.cost_before
    m = inst.metric
    for t, mid, u in collinear_triples(m):
        def g(a, b):
            return adj.deltas[(a, b)] if (a, b) in adj.deltas else adj.deltas[(b, a)]
        assert g(t, mid) + g(mid, u) == g(t, u)


def test_adjust_solution_perturbed_input():
    inst = generate(3, ave=True)
    sol = grid_snap(inst, 1)
    eta = F(1, 10 ** 9)
    deltas = exact_deltas()
    deltas[("b", "c")] = deltas[("b", "c")] + eta / 7
    deltas[("d", "e")] = deltas[("d", "e")] - eta / 9
    assert check_good(inst, deltas, eta).good
    adj = adjust_solution(inst, sol, deltas, eta)
    m = inst.metric
    for t, mid, u in collinear_triples(m):
        def g(a, b):
            return adj.deltas[(a, b)] if (a, b) in adj.deltas else adj.deltas[(b, a)]
        assert g(t, mid) + g(mid, u) == g(t, u)
    assert adj.cost_after <= (1 + 30 * eta) * adj.cost_before


def test_adjust_solution_rejects_bad_input():
    inst = generate(2, ave=True)
    eta = F(1, 10 ** 9)
    deltas = exact_deltas()
    deltas[("a", "e")] = deltas[("a", "e")] + 3 * eta
    with pytest.raises(MetricError):
        adjust_solution(inst, grid_snap(inst, 1), deltas, eta)


# ---------------------------------------------------------------------------
# the integer-lattice kernel against an independent Fraction reference
# built on ts_distance and associated coordinates


#: critical steps on (x, y, z), in units of 1/L
REF_STEPS = {1: (0, 0, 1), 2: (0, 2, -1), 3: (1, 0, 0), 4: (-1, 2, 0)}

#: direction -> the (table, anchor) terms its aggregate bound sums
REF_TERMS = {1: (("fwd", "d"), ("fwd", "b")), 2: (("bwd", "d"), ("bwd", "b")),
             3: (("bwd", "d"), ("fwd", "b"), ("fwd", "c"), ("fwd", "c")),
             4: (("fwd", "d"), ("bwd", "b"), ("fwd", "c"), ("fwd", "c"))}


def ref_assoc(inst):
    """Associated coordinates of each grid vertex: (i, j, k) sits at (i, 2j, k) / L."""
    L = inst.L
    return {vid: AssocVec(F(i, L), F(2 * j, L), F(k, L)) for vid, (i, j, k) in inst.index.items()}


def _ref_shift(inst, at, vid, dx, dy, dz):
    i, j, k = inst.index[vid]
    L = inst.L
    return at.get(AssocVec(F(i + dx, L), F(2 * j + dy, L), F(k + dz, L)))


def _ref_excess(inst, sol, paths):
    f = sol.f
    return [sum((ts_distance(f[u], f[v]) for u, v in zip(p.vertex_ids, p.vertex_ids[1:])),
                F(0)) - inst.metric.d(p.source, p.sink) for p in paths]


def _ref_pos(v):
    return max(v, F(0))


def ref_directional(inst, sol):
    f, m = sol.f, inst.metric
    at = {a: vid for vid, a in ref_assoc(inst).items()}
    fwd, bwd, nbrs, fails = {}, {}, {}, []
    x = {vid: to_assoc(f[vid]).x for vid in inst.vecs}
    for vid in inst.index:
        for d, step in REF_STEPS.items():
            w = _ref_shift(inst, at, vid, *step)
            if w is None:
                continue
            nbrs[(vid, d)] = w
            s = ts_distance(f[vid], f[w])
            for t in "bcd":
                diff = ts_distance(f[vid], m.row(t)) - ts_distance(f[w], m.row(t))
                fwd[(vid, d, t)], bwd[(vid, d, t)] = s + diff, s - diff
            if d in (1, 2):
                table = fwd if d == 1 else bwd
                if table[(vid, d, "d")] + table[(vid, d, "b")] < 2 * abs(x[vid] - x[w]):
                    fails.append(f"dir{d} x-bound at {vid}")
    excess = {}
    for p, e in zip(inst.paths, _ref_excess(inst, sol, inst.paths)):
        excess[p.group] = excess.get(p.group, F(0)) + e

    tables = {"fwd": fwd, "bwd": bwd}

    def rhs(d):
        return sum((tables[tbl][(vid, d, t)] for (vid, d2) in nbrs if d2 == d
                    for tbl, t in REF_TERMS[d]), F(0))

    aggregates = [
        ("dir1", excess["ad1"] + excess["be1"], rhs(1)),
        ("dir2", excess["ad2"] + excess["be2"], rhs(2)),
        ("dir3", excess["ad3"] + excess["be3"] + 2 * excess["cf3"], rhs(3)),
        ("dir4", excess["ad4"] + excess["be4"] + 2 * excess["cf4"], rhs(4)),
    ]
    for vid in inst.vecs:
        if (ts_distance(f[vid], m.row("a")) + ts_distance(f[vid], m.row("b"))
                < 2 + 2 * _ref_pos(x[vid])):
            fails.append(f"ab anchor bound at {vid}")
        if (ts_distance(f[vid], m.row("d")) + ts_distance(f[vid], m.row("e"))
                < 2 + 2 * _ref_pos(1 - x[vid])):
            fails.append(f"de anchor bound at {vid}")
    return fwd, bwd, aggregates, fails


def ref_planar(inst, sol):
    L = inst.L
    at = {a: vid for vid, a in ref_assoc(inst).items()}
    p = {vid: to_assoc(rect_project(sol.f[vid])) for vid in inst.vecs}
    lx, ly, lz1, lz2, cx, tr = {}, {}, {}, {}, [], []
    for vid in inst.index:
        a = p[vid]
        w3, w4 = _ref_shift(inst, at, vid, 1, 0, 0), _ref_shift(inst, at, vid, -1, 2, 0)
        w34, w234 = _ref_shift(inst, at, vid, 0, 2, 0), _ref_shift(inst, at, vid, 1, 2, 0)
        if w3 is not None:
            b = p[w3]
            lx[vid] = abs(a.y - b.y) + 2 * _ref_pos(2 * a.x + a.y - 2 * b.x - b.y)
            if lx[vid] < 2 * _ref_pos(a.x - b.x):
                cx.append(vid)
        if w34 is not None:
            ly[vid] = 2 * abs(a.x - p[w34].x)
        if w4 is not None:
            lz1[vid] = abs(2 * a.x + a.y - 2 * p[w4].x - p[w4].y)
        if w234 is not None:
            lz2[vid] = abs(2 * a.x - a.y - 2 * p[w234].x + p[w234].y)
    for vid in inst.index:
        w3, w34 = _ref_shift(inst, at, vid, 1, 0, 0), _ref_shift(inst, at, vid, 0, 2, 0)
        if (vid in lz2 and vid in lx and w34 in lx and vid in ly and w3 in ly
                and w3 in lz1 and lz2[vid] > lx[vid] + lx[w34] + ly[vid] + ly[w3] + lz1[w3]):
            tr.append(vid)
    table, edge_sum = {}, F(0)
    for jy in range(L + 1):
        for kz in range(L + 1 - jy):
            line = [at[AssocVec(F(q, L), F(2 * jy, L), F(kz, L))] for q in range(L + 1)]
            ends = _ref_pos(p[line[0]].x) + _ref_pos(1 - p[line[-1]].x)
            table[(jy, kz)] = sum((ls.get(v, F(0)) for v in line
                                   for ls in (lx, ly, lz1, lz2)), F(0)) + 3 * ends
            edge_sum += 2 * ends
    paths = inst.all_paths()
    lhs = sum((q.capacity * e for q, e in zip(paths, _ref_excess(inst, sol, paths))), F(0))
    total = sum((sum(ls.values(), F(0)) for ls in (lx, ly, lz1, lz2)), F(0))
    return lx, ly, lz1, lz2, table, cx, tr, lhs, F(2, 3) * total + edge_sum


def assert_matches_reference(inst, sol):
    dg = diagnose(inst, sol)
    rep, dr, pr = dg.losses, dg.directional, dg.planar
    paths = inst.all_paths()
    excess = _ref_excess(inst, sol, paths)
    assert [(q.name, q.excess, q.loss) for q in rep.per_path] \
        == [(p.name, e, p.capacity * e) for p, e in zip(paths, excess)]
    assert rep.total == sum((p.capacity * e for p, e in zip(paths, excess)), F(0))
    _, _, aggregates, fails = ref_directional(inst, sol)
    assert dr.aggregates == aggregates
    assert dr.x_bound_failures == fails and dr.x_bounds_ok == (not fails)
    assert (pr.l_x, pr.l_y, pr.l_z1, pr.l_z2, pr.table, pr.step_bound_failures,
            pr.transfer_bound_failures, pr.bound_lhs, pr.bound_rhs) \
        == ref_planar(inst, sol)
    assert pr.bound_lhs == rep.total


def test_generated_lengths_are_span_distances():
    # generate gives an edge between two non-terminals 1/L without measuring it
    for inst in [generate(L) for L in (2, 3, 5, 6, 8)] + [generate(4, ave=True)]:
        L, term_ids = inst.L, set(inst.graph.terminals.values())
        steps = 0
        for u, v, _, length in inst.graph.edges:
            assert length == ts_distance(inst.vecs[u], inst.vecs[v])
            if u not in term_ids and v not in term_ids:
                assert length == F(1, L)
                steps += 1
        assert steps > 0
        for vid, (i, j, k) in inst.index.items():
            assert inst.vecs[vid] == from_assoc(AssocVec(F(i, L), F(2 * j, L), F(k, L)))


def test_lattice_diagnostics_match_reference():
    for L in (3, 4, 5):
        inst = generate(L)
        # the identity maps every grid point to an image point of its own
        assert_matches_reference(inst, identity_solution(inst))
        for g in (1, 2, 3, 5):
            assert_matches_reference(inst, grid_snap(inst, g))
    # the bench ladder sizes
    for L, gs in ((6, (1, 2, 3)), (7, (2,))):
        inst = generate(L)
        for g in gs:
            assert_matches_reference(inst, grid_snap(inst, g))


def lattice_candidate(inst, rng):
    """Non-terminals mapped to span points on the 1/6 and 1/10 lattices."""
    pts = []
    for den in (6, 10):
        while len(pts) < 8 * (1 + (den == 10)):
            x, z = F(rng.randint(0, den), den), F(rng.randint(0, den), den)
            y = F(rng.randint(0, 2 * den), den)
            try:
                pts.append(from_assoc(AssocVec(x, y, z)))
            except MetricError:
                pass
    term_ids = set(inst.graph.terminals.values())
    return CandidateSolution(f={vid: dict(vec if vid in term_ids else rng.choice(pts))
                                for vid, vec in inst.vecs.items()})


def test_lattice_diagnostics_mixed_denominators(rng):
    from spanflow.hard6 import _Lattice
    inst = generate(4)
    sol = lattice_candidate(inst, rng)
    assert _Lattice(inst, sol).S == 30
    assert_matches_reference(inst, sol)


def test_lattice_adjust_costs_match_reference(rng):
    inst = generate(3, ave=True)
    sol = lattice_candidate(inst, rng)
    m, eta = inst.metric, F(1, 10 ** 9)
    deltas = exact_deltas()
    deltas[("b", "c")] += eta / 7
    adj = adjust_solution(inst, sol, deltas, eta)
    terminal_of = {vid: t for t, vid in inst.graph.terminals.items()}

    def delta(t, u, table):
        return F(0) if t == u else table[(t, u)] if (t, u) in table else table[(u, t)]

    before = after = F(0)
    for u, v, cap, _ in inst.graph.edges:
        tu, tv = terminal_of.get(u), terminal_of.get(v)
        key = {w: tuple(sol.f[w][t] for t in "abcdef") for w in (u, v)}
        if tu and tv:
            before += cap * delta(tu, tv, deltas)
            after += cap * delta(tu, tv, adj.deltas)
        elif tu or tv:
            t, w = (tu, v) if tu else (tv, u)
            before += cap * ts_distance(sol.f[w], m.row(t))
            after += cap * adj.cluster_vectors[key[w]][t]
        else:
            before += cap * ts_distance(sol.f[u], sol.f[v])
            after += cap * ts_distance(adj.cluster_vectors[key[u]],
                                       adj.cluster_vectors[key[v]])
    assert (adj.cost_before, adj.cost_after) == (before, after)


def test_lattice_diagnostics_keep_checks():
    inst = generate(3)
    outside = identity_solution(inst)
    outside.f[next(iter(inst.index.keys() - set(inst.graph.terminals.values())))] = \
        {t: F(3) for t in "abcdef"}    # valid but not tight: off the span
    loose = identity_solution(inst)
    loose.f[inst.graph.terminals["b"]] = dict(inst.vecs[inst.graph.terminals["c"]])
    for sol, message in ((outside, "outside the span"), (loose, "must map to itself")):
        with pytest.raises(MetricError, match=message):
            diagnose(inst, sol)


def test_snap_grid_run_checks_the_cover_once(monkeypatch, capsys):
    import spanflow.hard6 as hard6
    from spanflow.cli import main
    checks = []
    real = hard6._check_cover
    monkeypatch.setattr(hard6, "_check_cover",
                        lambda inst, sol: checks.append(sol) or real(inst, sol))
    assert main(["hard6", "--L", "3", "--snap-grid", "2"]) == 0
    assert len(checks) == 1


def test_diagnose_checks_the_cover_once(monkeypatch):
    import spanflow.hard6 as hard6
    checks = []
    real = hard6._check_cover
    monkeypatch.setattr(hard6, "_check_cover",
                        lambda inst, sol: checks.append(sol) or real(inst, sol))
    cases = [(generate(L), g) for L in (3, 4, 5) for g in (1, 2, 3)]
    cases += [(generate(4, ave=True), g) for g in (1, 2, 3)]
    for inst, g in cases:
        sol = grid_snap(inst, g)
        checks.clear()
        dg = diagnose(inst, sol)
        assert checks == [sol]
        assert dg.image_size == len({tuple(v[t] for t in TERMS) for v in sol.f.values()})


def test_check_cover_checks_each_vector_before_keying_it():
    inst = generate(4)
    sol = grid_snap(inst, 2)
    size = diagnose(inst, sol).image_size
    vid = next(v for v in inst.index if v not in inst.graph.terminals.values())
    # a snapped vertex written as strings is the same image point
    sol.f[vid] = {t: str(x) for t, x in sol.f[vid].items()}
    assert diagnose(inst, sol).image_size == size
    # a vector that lacks a coordinate is a MetricError, not a KeyError
    sol.f[vid] = {t: x for t, x in sol.f[vid].items() if t != "b"}
    with pytest.raises(MetricError, match="missing coordinates"):
        diagnose(inst, sol)


def test_check_cover_crosses_into_ints_once(monkeypatch):
    import spanflow.hard6 as hard6
    calls = []
    real = hard6.to_lattice
    monkeypatch.setattr(hard6, "to_lattice",
                        lambda m, points: calls.append(list(points)) or real(m, calls[-1]))
    inst = generate(4)
    sol = grid_snap(inst, 2)
    # two objects with one value: passed once each, keyed as one image point
    vid = next(v for v in inst.index if v not in inst.graph.terminals.values())
    sol.f[vid] = {t: str(x) for t, x in sol.f[vid].items()}
    image, ipts, S = hard6._check_cover(inst, sol)
    assert len(calls) == 1
    assert len(calls[0]) == len({id(v) for v in sol.f.values()})
    points = {tuple(F(x) for x in v.values()) for v in sol.f.values()}
    assert len(ipts) == len(set(ipts)) == len(points) < len(calls[0])
    assert all(ipts[image[v]] == tuple(F(vec[t]) * S for t in TERMS)
               for v, vec in sol.f.items())


def test_check_cover_reads_a_terminal_written_as_strings():
    inst = generate(3)
    sol = grid_snap(inst, 2)
    dg = diagnose(inst, sol)
    b = inst.graph.terminals["b"]
    sol.f[b] = {t: str(x) for t, x in sol.f[b].items()}
    again = diagnose(inst, sol)
    assert (again.image_size, again.total_loss) == (dg.image_size, dg.total_loss)
    # b mapped to a's row is still not b, as Fractions or as strings
    for row in (inst.metric.row("a"), {t: str(x) for t, x in inst.metric.row("a").items()}):
        sol.f[b] = row
        with pytest.raises(MetricError, match="terminal b must map to itself"):
            diagnose(inst, sol)


def test_adjust_solution_reads_its_deltas_once(monkeypatch):
    import spanflow.hard6 as hard6
    calls = []
    real = hard6.pair_table
    monkeypatch.setattr(hard6, "pair_table", lambda pairs: calls.append(pairs) or real(pairs))
    inst = generate(3, ave=True)
    deltas = exact_deltas()
    adjust_solution(inst, grid_snap(inst, 2), deltas, F(1, 10 ** 9))
    assert calls == [deltas]


def test_snap_grid_out_run_stays_on_the_int_vectors(monkeypatch, tmp_path, capsys):
    import spanflow.cli as cli
    made = []
    monkeypatch.setattr(cli, "generate", lambda *a, **kw: made.append(generate(*a, **kw)) or made[-1])
    assert cli.main(["hard6", "--L", "4", "--snap-grid", "2", "--out", str(tmp_path)]) == 0
    inst, = made
    assert "vecs" not in vars(inst)
    # the Fraction view is the ints over L, terminals included
    m = inst.metric
    for t, vid in inst.graph.terminals.items():
        assert inst.vecs[vid] == m.row(t)
    assert list(inst.vecs) == list(inst.ivecs) == inst.graph.vertices
    assert all(inst.vecs[vid] == {t: F(n, 4) for t, n in zip(TERMS, iv)}
               for vid, iv in inst.ivecs.items())
