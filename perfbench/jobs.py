"""How each kind of job runs, what it records and which properties it must meet.

Jobs call the package from outside: library functions through the `spanflow`
namespace and commands through `spanflow.cli.main(argv)` with stdout captured,
all looked up at call time so the span recorder sees them.  `run(job, ctx)`
is the timed part; `record` and `properties` run after the pass.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import spanflow
import spanflow.cli

import check
from corpus import D6

CLUSTER_BOUNDS = {"type1": 16, "type2": 22, "type3": 21}
CLUSTER_CAP = 30


class Context:
    """A parsed corpus: its directory and the graphs the library jobs use."""

    def __init__(self, root: Path, job_list: list[dict]):
        self.root = root
        self.graphs = {}
        for job in job_list:
            name = job.get("graph")
            if name is not None and name not in self.graphs:
                self.graphs[name] = spanflow.load_graph((root / name).read_text())
        for job in job_list:
            for arg in job.get("argv", ()):
                path = root / arg[1:]
                if arg.startswith("@") and path.suffix == ".txt" and path.is_file():
                    text = path.read_text()
                    first = text.split(None, 1)[0]
                    if first == "dist":
                        spanflow.load_metric(text)
                    elif first == "demand":
                        spanflow.load_demand(text)
                    elif arg[1:] not in self.graphs:
                        self.graphs[arg[1:]] = spanflow.load_graph(text)

    def argv(self, job: dict) -> list[str]:
        return [str(self.root / a[1:]) if a.startswith("@") else a for a in job["argv"]]

    def relative(self, text: str) -> str:
        return text.replace(str(self.root) + "/", "@")


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = spanflow.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def job_key(job: dict, root: Path) -> str:
    """Identity of a job's inputs: its spec and the input files it names."""
    h = hashlib.sha256()
    spec = {k: v for k, v in job.items() if k != "id"}
    h.update(json.dumps(spec, sort_keys=True).encode())
    names = [a[1:] for a in job.get("argv", ()) if a.startswith("@")]
    names += [job["graph"]] if "graph" in job else []
    for name in names:
        path = root / name
        if path.is_file():
            h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:24]


# -- run ----------------------------------------------------------------------


def run(job: dict, ctx: Context):
    kind = job["kind"]
    if kind == "cli":
        return run_cli(ctx.argv(job))
    if kind == "expected_cost":
        emb = spanflow.project_graph(ctx.graphs[job["graph"]])
        return spanflow.expected_cost(emb, job["samples"], job["seed"], per_edge=True)
    if kind == "ave":
        out = run_cli(ctx.argv(job))
        inst = spanflow.generate(job["L"], ave=True)
        m = spanflow.metric6()
        eta = Fraction(job["eta"])
        deltas = {(t, u): m.d(t, u) + Fraction(off)
                  for (t, u), off in ((tuple(k.split(",")), v)
                                      for k, v in job["offsets"].items())}
        out["good"] = spanflow.check_good(inst, deltas, eta).good
        out["adjusted"] = spanflow.adjust_solution(inst, spanflow.grid_snap(inst, 2),
                                                   deltas, eta)
        return out
    if kind == "quality":
        g = ctx.graphs[job["graph"]]
        dec = spanflow.Decomposer(spanflow.project_graph(g))
        h = spanflow.contract(g, dec.solution(job["sample_seed"]))
        outdir = ctx.root / job["out"]
        outdir.mkdir(exist_ok=True)
        (outdir / "G.txt").write_text(spanflow.dump_graph(g))
        (outdir / "H.txt").write_text(spanflow.dump_graph(h))
        return run_cli(ctx.argv(job))
    if kind == "ave_lp":
        inst = spanflow.generate(job["L"], ave=True, gamma=Fraction(job["gamma"]))
        res = spanflow.max_concurrent_flow(inst.graph, inst.ave.demand,
                                           Fraction(job["epsilon"]))
        return {"result": res}
    if kind == "single":
        g = ctx.graphs[job["graph"]]
        d = Fraction(job["demand"])
        demand = spanflow.Demand({("s", "t"): d})
        lam_star = spanflow.exact_single_commodity(g, "s", "t") / d
        res = spanflow.max_concurrent_flow(g, demand, Fraction(job["epsilon"]))
        delta = spanflow.shortest_distances(g, g.terminals["s"])[g.terminals["t"]]
        scale = 1 / (delta * d)
        cert = spanflow.dual_value(g, [e.length * scale for e in g.edges],
                                   {("s", "t"): delta * scale}, demand=demand)
        return {"lam_star": lam_star, "lam": res.lam, "cert": cert}
    raise ValueError(f"unknown job kind {kind!r}")


# -- record -------------------------------------------------------------------


def _cli_record(out: dict, ctx: Context) -> dict:
    rec = {"rc": out["rc"]}
    if out["rc"] == 0:
        rec.update(check.flatten(json.loads(ctx.relative(out["stdout"]))))
    return rec


def record(job: dict, out, ctx: Context) -> dict:
    kind = job["kind"]
    if kind == "expected_cost":
        edges = out.per_edge or []
        return {"mean_vol": str(out.mean_vol), "stderr": out.stderr, "opt": str(out.opt),
                "samples": out.samples,
                "per_edge.mean_delta": check.digest([str(e.mean_delta) for e in edges]),
                "per_edge.embed_dist": check.digest([str(e.embed_dist) for e in edges]),
                "per_edge.stderr_sum": sum(e.stderr for e in edges)}
    if kind == "single":
        return {"lambda_star": str(out["lam_star"]),
                "lambda": check.ENVELOPE_PREFIX + json.dumps(str(out["lam"])),
                "dual.value": str(out["cert"].value), "dual.feasible": out["cert"].feasible}
    if kind == "ave_lp":
        return {"lambda": check.ENVELOPE_PREFIX + json.dumps(str(out["result"].lam))}
    rec = _cli_record(out, ctx)
    if kind == "ave":
        adj = out["adjusted"]
        rec.update({"good": out["good"],
                    "adjusted.deltas": check.digest({f"{t},{u}": str(v) for (t, u), v
                                                     in sorted(adj.deltas.items())}),
                    "adjusted.scale": str(adj.scale),
                    "adjusted.image_size_before": adj.image_size_before,
                    "adjusted.image_size_after": adj.image_size_after,
                    "adjusted.cost_before": check.digest(str(adj.cost_before)),
                    "adjusted.cost_after": check.digest(str(adj.cost_after))})
    if kind == "quality":
        for name in ("G.txt", "H.txt"):
            rec[f"file.{name}"] = check.digest((ctx.root / job["out"] / name).read_text())
    if kind == "cli" and job["argv"][0] == "hard6" and out["rc"] == 0:
        outdir = ctx.root / job["argv"][-1][1:]
        rec["file.graph.txt"] = check.digest((outdir / "graph.txt").read_text())
        for name in ("instance.json", "diagnostics.json"):
            path = outdir / name
            if path.is_file():
                rec.update(check.flatten(json.loads(path.read_text()), f"file.{name}."))
    return rec


# -- properties ---------------------------------------------------------------------


def properties(job: dict, out, ctx: Context) -> list[str]:
    """Stated properties the output violates (empty when all hold)."""
    kind = job["kind"]
    if kind in ("cli", "ave", "quality") and out["rc"] != 0:
        return [f"exit code {out['rc']}: {out['stderr'].strip()[:200]}"]
    try:
        return _PROPERTIES[kind if kind != "cli" else job["argv"][0]](job, out, ctx)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]


def _sparsify(job, out, ctx):
    data = json.loads(out["stdout"])
    names, pairs = check.parse_metric(job["metric"])
    problems = []
    clusters = {c["label"]: c for c in data["solution"]["clusters"]}
    for t in names:
        rep = clusters[f"t:{t}"]["rep"]
        if any(Fraction(rep[u]) != (pairs[(t, u)] if u != t else 0) for u in names):
            problems.append(f"terminal {t} not kept at its own row")
    bound = CLUSTER_BOUNDS.get(data["template"], CLUSTER_CAP)
    if len(clusters) > bound:
        problems.append(f"{len(clusters)} clusters exceed the {data['template']} bound {bound}")
    cost = data["cost"]
    if Fraction(cost["ratio"]) * Fraction(cost["opt"]) != Fraction(cost["vol"]):
        problems.append("cost ratio is not vol / opt")
    mc = data["monte_carlo"]
    if mc["samples"] != int(job["argv"][job["argv"].index("--samples") + 1]):
        problems.append("wrong sample count")
    if Fraction(mc["mean_vol"]) < Fraction(cost["vol"]) or mc["stderr"] < 0:
        problems.append("Monte Carlo mean below the best sample, or negative stderr")
    return problems


def _expected_cost(job, ec, ctx):
    edges, terminals = check.parse_graph((ctx.root / job["graph"]).read_text())
    dist = {t: check.dijkstra(edges, v) for t, v in terminals.items()}
    tvert = {v: t for t, v in terminals.items()}
    opt = Fraction(0)
    for u, v, cap, _ in edges:   # every edge touches a terminal in this corpus
        opt += cap * (dist[tvert[u]][v] if u in tvert else dist[tvert[v]][u])
    problems = []
    if ec.opt != opt:
        problems.append(f"opt {ec.opt} != {opt}")
    if ec.samples != job["samples"] or ec.stderr < 0:
        problems.append("wrong sample count or negative stderr")
    if sum((e.edge.capacity * e.mean_delta for e in ec.per_edge), Fraction(0)) != ec.mean_vol:
        problems.append("mean volume is not the capacity-weighted sum of edge means")
    if any(e.embed_dist > e.edge.length for e in ec.per_edge):
        problems.append("projection expands an edge")
    return problems


def _tightspan(job, out, ctx):
    data = json.loads(out["stdout"])
    names, pairs = check.parse_metric(job["metric"])
    verts = [{t: Fraction(x) for t, x in zip(data["terminals"], v)} for v in data["vertices"]]
    problems = []
    if data["terminals"] != names:
        problems.append("terminal order changed")
    rows = [{u: (pairs[(t, u)] if u != t else Fraction(0)) for u in names} for t in names]
    if any(r not in verts for r in rows):
        problems.append("a terminal row is not a vertex")
    if not all(check.in_span(names, pairs, v) for v in verts):
        problems.append("a vertex lies outside the span")
    if max(c["dim"] for c in data["cells"]) > len(names) // 2:
        problems.append("cell dimension above k/2")
    return problems


def _project(job, out, ctx):
    data = json.loads(out["stdout"])
    names, pairs = check.parse_metric(job["metric"])
    given = [Fraction(x) for x in job["argv"][2].split(",")]
    x = dict(zip(data["terminals"], (Fraction(v) for v in data["input"])))
    p = dict(zip(data["terminals"], (Fraction(v) for v in data["projected"])))
    problems = []
    if [x[t] for t in names] != given:
        problems.append("input vector not echoed")
    if not check.in_span(names, pairs, p):
        problems.append("projection lies outside the span")
    if any(p[t] > x[t] for t in names):
        problems.append("projection increases a coordinate")
    return problems


def _hard6(job, out, ctx):
    data = json.loads(out["stdout"])
    L = job["L"]
    problems = []
    if not data["ave"] and Fraction(data["opt"]) > 90 * L * L:
        problems.append("opt exceeds 90 L^2")
    outdir = ctx.root / job["argv"][-1][1:]
    edges, terminals = check.parse_graph((outdir / "graph.txt").read_text())
    if len(edges) != data["edges"] or len(terminals) != 6:
        problems.append("graph.txt disagrees with the summary")
    if job.get("snap_grid") is not None:
        diag = json.loads((outdir / "diagnostics.json").read_text())
        if diag["step_bound_failures"] or diag["transfer_bound_failures"]:
            problems.append("planar step or transfer bound failures")
        if not diag["x_bounds_ok"]:
            problems.append("per-vertex x bounds fail")
        if any(Fraction(a["lhs"]) < Fraction(a["rhs"]) for a in diag["aggregates"].values()):
            problems.append("an aggregate bound fails")
        if Fraction(diag["planar_bound"]["lhs"]) < Fraction(diag["planar_bound"]["rhs"]):
            problems.append("the planar bound fails")
    return problems


def _ave(job, out, ctx):
    adj = out["adjusted"]
    eta = Fraction(job["eta"])
    pairs = {}
    for (t, u), v in adj.deltas.items():
        pairs[(t, u)] = pairs[(u, t)] = v
    names = sorted({t for t, _ in pairs})
    base = {}
    for (t, u), v in D6.items():
        base[(t, u)] = base[(u, t)] = Fraction(v)
    problems = []
    if not out["good"]:
        problems.append("perturbed input not reported good")
    for t, mid, u in ((t, m, u) for t, u in combinations(names, 2) for m in names
                      if m not in (t, u) and base[(t, m)] + base[(m, u)] == base[(t, u)]):
        if pairs[(t, mid)] + pairs[(mid, u)] != pairs[(t, u)]:
            problems.append(f"triple ({t}, {mid}, {u}) not collinear after adjustment")
    if adj.image_size_after > adj.image_size_before + 6:
        problems.append("image grew by more than six")
    if adj.cost_after > (1 + 30 * eta) * adj.cost_before:
        problems.append("cost grew by more than 1 + 30 eta")
    return problems


def _quality(job, out, ctx):
    data = json.loads(out["stdout"])
    eps = Fraction(data["epsilon"])
    argv = job["argv"]
    k = argv.count("--demands") + (int(argv[argv.index("--random-demands") + 1])
                                   if "--random-demands" in argv else 0)
    problems = []
    if len(data["ratios"]) != k:
        problems.append("wrong number of ratios")
    if Fraction(data["envelope_factor"]) != check.envelope_of(eps):
        problems.append("envelope factor is not (1 + eps) / (1 - eps)")
    if Fraction(data["min_ratio"]) * (1 + 2 * eps) < 1:
        problems.append("contraction raised congestion beyond 1 + 2 eps")
    return problems


def _ave_lp(job, out, ctx):
    # the instance is rebuilt here rather than kept, so that the pass's peak
    # memory does not include every instance it solved
    inst = spanflow.generate(job["L"], ave=True, gamma=Fraction(job["gamma"]))
    res = out["result"]
    edges = [(e.u, e.v, e.capacity, e.length) for e in inst.graph.edges]
    volume = sum((c * length for _, _, c, length in edges), Fraction(0))
    by_source = {}
    routed = Fraction(0)
    for (t, u), d in inst.ave.demand.entries.items():
        src = inst.graph.terminals[t]
        if src not in by_source:
            by_source[src] = check.dijkstra(edges, src)
        routed += d * by_source[src][inst.graph.terminals[u]]
    problems = []
    if not 0 < res.lam <= volume / routed:
        problems.append(f"lambda {res.lam} outside (0, {volume / routed}] (weak duality)")
    if any(load > e.capacity for load, e in zip(res.loads, inst.graph.edges)):
        problems.append("a reported load exceeds its capacity")
    return problems


def _single(job, out, ctx):
    edges, terminals = check.parse_graph((ctx.root / job["graph"]).read_text())
    d = Fraction(job["demand"])
    eps = Fraction(job["epsilon"])
    lam_star = check.max_flow(edges, terminals["s"], terminals["t"]) / d
    problems = []
    if out["lam_star"] != lam_star:
        problems.append(f"oracle {out['lam_star']} != {lam_star}")
    if not (1 - eps) * lam_star <= out["lam"] <= lam_star:
        problems.append(f"lambda {out['lam']} outside [(1 - eps) {lam_star}, {lam_star}]")
    cert = out["cert"]
    if not cert.feasible or cert.value < out["lam"]:
        problems.append("dual certificate infeasible or below lambda")
    return problems


_PROPERTIES = {"sparsify": _sparsify, "expected_cost": _expected_cost,
               "tightspan": _tightspan, "project": _project, "hard6": _hard6,
               "ave": _ave, "quality": _quality, "ave_lp": _ave_lp, "single": _single}
