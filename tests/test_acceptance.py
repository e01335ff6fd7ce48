"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (the lines print regardless of
capture).  Sizes and tolerances are fixed here; nothing is calibrated at run
time.
"""
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from operator import add, mul

import pytest

from spanflow.decompose import (Cluster, Decomposer, Solution, contract, moment_stats,
                                type1_metric, type2_metric, type3_metric)
from spanflow.flow import Demand, dual_value, exact_single_commodity, max_concurrent_flow
from spanflow.graphs import project_graph, shortest_distances
from spanflow.hard6 import (AssocVec, adjust_solution, check_good, directional_losses,
                            from_assoc, generate, grid_snap, identity_solution,
                            losses, metric6, planar_losses, to_assoc)
from spanflow.metric import TerminalMetric, collinear_triples
from spanflow.textio import dump_graph
from spanflow.tightspan import (enumerate_complex, in_tight_span,
                                max_cell_dimension, project, ts_distance)

from conftest import (graph_from_metric, rand_connected_graph, rand_metric,
                      rand_valid_vector)


def report(capsys, number: int, description: str, ok: bool):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_c01_projection_exactness(capsys):
    m = TerminalMetric.from_pairs({("a", "b"): 4, ("a", "c"): 4, ("b", "c"): 4})
    ok = project(m, m.vector([1, 3, 5])) == m.vector([1, 3, 3])
    report(capsys, 1, "all-4 metric projects (1,3,5) to (1,3,3) exactly", ok)


@pytest.fixture(scope="module")
def projected_pairs():
    rng = random.Random(424242)
    out = []
    metrics = [rand_metric(rng, k) for k in (3, 4, 5, 6) for _ in range(10)]
    per_metric = 10 ** 4 // len(metrics)
    for m in metrics:
        for _ in range(per_metric):
            x = rand_valid_vector(rng, m)
            y = rand_valid_vector(rng, m)
            out.append((m, x, y, project(m, x), project(m, y)))
    return out


def test_c02_projection_nonexpansion(capsys, projected_pairs):
    violations = sum(1 for m, x, y, px, py in projected_pairs
                     if ts_distance(px, py) > ts_distance(x, y))
    report(capsys, 2,
           f"non-expansion exact on {len(projected_pairs)} random pairs "
           f"(violations: {violations})", violations == 0)


def test_c03_projection_membership(capsys, projected_pairs):
    bad = sum(1 for m, x, y, px, py in projected_pairs
              if not (in_tight_span(m, px) and in_tight_span(m, py)))
    report(capsys, 3,
           f"projected vectors lie in the span on the same sample "
           f"(failures: {bad})", bad == 0)


def test_c04_complex_fidelity(capsys):
    ex2 = TerminalMetric.from_pairs(
        {("a", "b"): 7, ("a", "c"): 8, ("a", "d"): 4,
         ("b", "c"): 6, ("b", "d"): 8, ("c", "d"): 5})
    cx = enumerate_complex(ex2)
    pend = sorted(ts_distance(cx.vertices[c.vertex_ids[0]],
                              cx.vertices[c.vertex_ids[1]])
                  for c in cx.cells if c.dim == 1)
    ok = pend == [F(1, 2), F(3, 2), F(3, 2), F(5, 2)]
    rect = [c for c in cx.cells if c.dim == 2]
    ok = ok and len(rect) == 1
    corners = [cx.vertices[i] for i in rect[0].vertex_ids]
    dists = sorted(ts_distance(p, q) for i, p in enumerate(corners)
                   for q in corners[i + 1:])
    ok = ok and dists == [2, 2, 3, 3, 5, 5]

    cx6 = enumerate_complex(metric6())
    ok = ok and max_cell_dimension(cx6) == 3
    prisms = [c for c in cx6.cells if c.dim == 3]
    ok = ok and len(prisms) == 1
    ok = ok and prisms[0].pairs == (("a", "d"), ("b", "e"), ("c", "f"))
    report(capsys, 4, "four-point pendants {3/2,5/2,3/2,1/2}, 3x2 cell; "
                      "six-terminal prism {ad,be,cf} at dimension 3", ok)


def test_c05_dimension_bound(capsys):
    rng = random.Random(5005)
    worst = 0
    for _ in range(200):
        m = rand_metric(rng, 5)
        worst = max(worst, max_cell_dimension(enumerate_complex(m)))
    report(capsys, 5, f"200 random 5-point metrics: max cell dimension {worst} <= 2",
           worst <= 2)


def _derived_instances():
    rng = random.Random(60606)

    def fr(lo=1, hi=6):
        return F(rng.randint(lo * 4, hi * 4), 4)

    out = []
    for _ in range(7):
        pend = {t: fr() for t in "abcde"}
        sides = {("a", "b"): fr(), ("b", "c"): fr(), ("c", "d"): fr(),
                 ("d", "e"): fr(), ("e", "a"): fr()}
        out.append(("type1", 16, type1_metric(pend, sides)))
    for _ in range(7):
        w, h = fr(6, 9), fr(6, 9)
        out.append(("type2", 22,
                    type2_metric(w, h, fr(1, 2), fr(1, 2), fr(1, 2),
                                 {t: fr() for t in "abcde"})))
    for _ in range(6):
        out.append(("type3", 21,
                    type3_metric(fr(), fr(), fr(), fr(), fr(1, 2),
                                 {t: fr() for t in "abcde"})))
    return rng, out


def test_c06_decomposition_guarantees(capsys):
    rng, instances = _derived_instances()
    n_samples = 10 ** 4
    seeder = random.Random(999331)
    all_ok = True
    detail = []
    for idx, (tag, bound, m) in enumerate(instances):
        g = graph_from_metric(m, 4, rng)
        emb = project_graph(g)
        dec = Decomposer(emb)
        ok = dec.template.tag == tag
        # per-edge int sums of delta and delta^2 on the lattice scale S
        lat = dec.lattice
        ends = [(u, v) for u, v, _, _ in g.edges]
        s1 = s2 = [0] * len(ends)
        # each terminal's row on the lattice, compared with its representative
        term_ipts = {t: tuple(m.row(t)[u] * lat.S for u in m.terminals) for t in m.terminals}
        max_clusters = 0
        for i in range(n_samples):
            seed = seeder.getrandbits(64)
            assign = dec.assignment_ids(seed)
            max_clusters = max(max_clusters, len(set(assign.values())))
            for t in m.terminals:  # terminal exactness on every sample
                if lat.ipts[assign[g.terminals[t]]] != term_ipts[t]:
                    ok = False
            ds = [lat.dist(assign[u], assign[v]) for u, v in ends]
            s1 = list(map(add, s1, ds))
            s2 = list(map(add, s2, map(mul, ds, ds)))
        ok = ok and max_clusters <= bound and max_clusters <= 30
        for (u, v), e1, e2 in zip(ends, s1, s2):
            mean, stderr = moment_stats(e1, e2, n_samples, lat.S)
            embed = ts_distance(emb.points[u], emb.points[v])
            if float(mean) > float(embed) + 3 * stderr + 1e-12:
                ok = False
        detail.append((tag, max_clusters))
        all_ok = all_ok and ok
    # larger instances (more vertices than the bounds) so the size caps bind
    seen = {}
    for tag, bound, m in (instances[0], instances[7], instances[14]):
        g = graph_from_metric(m, 28, rng)
        dec = Decomposer(project_graph(g))
        worst = 0
        for i in range(2000):
            assign = dec.assignment_ids(i)
            worst = max(worst, len(set(assign.values())))
        seen[tag] = worst
        if worst > bound:
            all_ok = False
    report(capsys, 6,
           f"20 derived instances: exact terminal distances and per-edge mean "
           f"within 3 stderr over {n_samples} seeds; cluster bounds 16/22/21 "
           f"on 33-vertex instances (largest seen {seen})", all_ok)


def test_c07_flow_solver_envelope(capsys):
    rng = random.Random(707)
    eps = F(1, 100)
    ok = True
    for _ in range(50):
        g = rand_connected_graph(rng, rng.randint(4, 8), rng.randint(2, 7))
        d = F(rng.randint(1, 5), rng.randint(1, 2))
        lam_star = exact_single_commodity(g, "s", "t") / d
        res = max_concurrent_flow(g, Demand({("s", "t"): d}), eps)
        if not (lam_star * (1 - eps) <= res.lam <= lam_star):
            ok = False
        # weak duality: scaled shortest-path certificate dominates the primal
        sp = shortest_distances(g, g.terminals["s"])
        delta = sp[g.terminals["t"]]
        scale = 1 / (delta * d)
        cert = dual_value(g, [e.length * scale for e in g.edges],
                          {("s", "t"): delta * scale},
                          demand=Demand({("s", "t"): d}))
        if not (cert.feasible and cert.value >= res.lam):
            ok = False
    report(capsys, 7, "50 random instances: lambda in [(1-eps) opt, opt] at "
                      "eps=0.01 and weak duality on all certificates", ok)


def test_c08_contraction_monotonicity(capsys):
    rng = random.Random(808)
    eps = F(1, 100)
    ok = True
    for _ in range(100):
        g = rand_connected_graph(rng, rng.randint(5, 8), rng.randint(3, 7),
                                 ("s", "t", "w"))
        emb = project_graph(g)
        m = emb.metric
        names = list(m.terminals)
        n_extra = rng.randint(0, 2)
        clusters = [Cluster(label=f"t:{t}", vertices=[], rep=m.row(t))
                    for t in names]
        by_vertex = {}
        term_vs = set(g.terminals.values())
        for t in names:
            by_vertex[g.terminals[t]] = names.index(t)
            clusters[names.index(t)].vertices.append(g.terminals[t])
        extras = []
        for v in g.vertices:
            if v in term_vs:
                continue
            slot = rng.randint(0, len(names) + n_extra - 1)
            if slot < len(names):
                by_vertex[v] = slot
                clusters[slot].vertices.append(v)
            else:
                extras.append((slot, v))
        for slot, v in extras:
            label = f"s{slot - len(names)}"
            match = [i for i, c in enumerate(clusters) if c.label == label]
            if match:
                idx = match[0]
            else:
                idx = len(clusters)
                clusters.append(Cluster(label=label, vertices=[], rep=emb.points[v]))
            by_vertex[v] = idx
            clusters[idx].vertices.append(v)
        sol = Solution(metric=m, clusters=[c for c in clusters if c.vertices],
                       by_vertex={})
        live = [c for c in clusters if c.vertices]
        remap = {id(c): i for i, c in enumerate(live)}
        sol.clusters = live
        sol.by_vertex = {v: remap[id(clusters[i])] for v, i in by_vertex.items()}
        h = contract(g, sol)
        pair = tuple(sorted(rng.sample(names, 2)))
        dem = Demand({pair: F(rng.randint(1, 4))})
        cong_g = 1 / max_concurrent_flow(g, dem, eps).lam
        cong_h = 1 / max_concurrent_flow(h, dem, eps).lam
        if cong_h > cong_g * (1 + 2 * eps):
            ok = False
    report(capsys, 8, "100 random (G, partition, demand) triples: "
                      "cong_H <= cong_G * (1 + 2 eps)", ok)


def test_c09_hard_instance_structure(capsys):
    ok = True
    detail = []
    for L in (6, 12, 24):
        inst = generate(L)
        m = inst.metric
        for p in inst.paths:
            ids = p.vertex_ids
            total = sum((ts_distance(inst.vecs[u], inst.vecs[v])
                         for u, v in zip(ids, ids[1:])), F(0))
            if total != m.d(p.source, p.sink):
                ok = False
        opt = inst.opt()
        if opt > 90 * L * L:
            ok = False
        if losses(inst, identity_solution(inst)).total != 0:
            ok = False
        for vid, (i, j, k) in inst.index.items():
            a = AssocVec(F(i, L), F(2 * j, L), F(k, L))
            if from_assoc(a) != inst.vecs[vid] or to_assoc(inst.vecs[vid]) != a:
                ok = False
        detail.append(f"L={L}: opt={opt}<=‎{90 * L * L}".replace("‎", ""))
    report(capsys, 9, "hard instance at L in {6,12,24}: geodesic paths, "
                      f"opt bound, zero identity loss, coordinate formulas "
                      f"({'; '.join(detail)})", ok)


def test_c10_diagnostic_soundness(capsys):
    inst = generate(12)
    ok = True
    for g in (1, 2, 3):
        sol = grid_snap(inst, g)
        if losses(inst, sol).total <= 0:
            ok = False
        dr = directional_losses(inst, sol)
        if not all(lhs >= rhs for _, lhs, rhs in dr.aggregates):
            ok = False
        if not dr.x_bounds_ok:
            ok = False
        pr = planar_losses(inst, sol)
        if pr.step_bound_failures or pr.transfer_bound_failures:
            ok = False
        if pr.bound_lhs < pr.bound_rhs:
            ok = False
    report(capsys, 10, "grid snaps g in {1,2,3} at L=12: positive loss, "
                       "aggregate bounds, per-vertex claims, planar bound "
                       "(headline constant needs astronomically large L; "
                       "these property checks substitute)", ok)


def test_c11_ave_adjustment(capsys):
    inst = generate(6, ave=True)
    m = inst.metric
    eta = F(1, 10 ** 9)
    deltas = {(t, u): m.d(t, u) for t, u in combinations(m.terminals, 2)}
    deltas[("b", "c")] += eta / 5
    deltas[("a", "e")] -= eta / 7
    ok = check_good(inst, deltas, eta).good
    sol = grid_snap(inst, 2)
    adj = adjust_solution(inst, sol, deltas, eta)
    for t, mid, u in collinear_triples(m):
        def g(a, b):
            return adj.deltas[(a, b)] if (a, b) in adj.deltas else adj.deltas[(b, a)]
        if g(t, mid) + g(mid, u) != g(t, u):
            ok = False
    ok = ok and adj.image_size_after <= adj.image_size_before + 6
    ok = ok and adj.cost_after <= (1 + 30 * eta) * adj.cost_before
    report(capsys, 11, "ave adjustment at eta=1e-9: exact collinearity, "
                       "image growth <= 6, cost factor <= 1 + 30 eta", ok)


def test_c12_cli_determinism(capsys, tmp_path):
    star = ("terminal a a\nterminal b b\nterminal c c\n"
            "edge a o 1 2\nedge b o 1 5\nedge c o 1 3\n")
    (tmp_path / "g.txt").write_text(star)
    # five terminals, so a span model (here the fan) assigns the vertices
    fan = type1_metric({t: F(i + 2, 2) for i, t in enumerate("abcde")},
                       {("a", "b"): 2, ("b", "c"): 1, ("c", "d"): 3,
                        ("d", "e"): F(5, 2), ("e", "a"): 1})
    (tmp_path / "fan.txt").write_text(dump_graph(graph_from_metric(fan, 6, random.Random(12))))
    cli = [sys.executable, "-m", "spanflow.cli"]
    out = tmp_path / "out"

    def run(hash_seed, args):
        r = subprocess.run(cli + list(args), capture_output=True, cwd=tmp_path,
                           env={**os.environ, "PYTHONHASHSEED": hash_seed})
        files = [(out / name).read_bytes() for name in
                 ("graph.txt", "instance.json", "diagnostics.json")] if out.exists() else []
        shutil.rmtree(out, ignore_errors=True)
        return r.returncode, r.stdout, files

    ok = True
    for args in (("sparsify", "g.txt", "--seed", "9", "--samples", "30"),
                 ("sparsify", "fan.txt", "--seed", "9", "--samples", "30"),
                 ("quality", "g.txt", "g.txt", "--random-demands", "2", "--seed", "4"),
                 ("hard6", "--L", "4", "--snap-grid", "2"),
                 ("hard6", "--L", "6", "--snap-grid", "2", "--out", "out")):
        r1, r2 = run("0", args), run("1", args)
        if r1[0] != 0 or r1 != r2 or bool(r1[2]) != ("--out" in args):
            ok = False
    report(capsys, 12, "CLI runs with identical seeds are byte-identical, stdout and "
                       "--out files, across processes with different hash seeds", ok)
