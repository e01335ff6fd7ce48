import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations

from spanflow import decompose
from spanflow.cli import main
from spanflow.decompose import Decomposer, type1_metric, type2_metric, type3_metric
from spanflow.graphs import TerminalGraph, project_graph
from spanflow.hard6 import metric6
from spanflow.metric import MetricError, TerminalMetric
from spanflow.textio import dump_graph, dump_metric
from spanflow.tightspan import enumerate_complex

from conftest import rand_metric, tie_metric

CLI = [sys.executable, "-m", "spanflow.cli"]

METRIC_EX1 = "dist a b 7\ndist a c 5\ndist b c 8\n"
METRIC_ALL4 = "dist a b 4\ndist a c 4\ndist b c 4\n"
STAR = ("terminal a a\nterminal b b\nterminal c c\n"
        "edge a o 1 2\nedge b o 1 5\nedge c o 1 3\n")


def run(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, cwd=cwd)


def test_tightspan_example1(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text(METRIC_EX1)
    r = run("tightspan", str(f))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data["vertices"]) == 4
    assert sum(1 for c in data["cells"] if c["dim"] == 1) == 3


def test_project_all4(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text(METRIC_ALL4)
    r = run("project", str(f), "1,3,5")
    assert r.returncode == 0
    assert json.loads(r.stdout)["projected"] == ["1", "3", "3"]


def test_malformed_rational_exit_2(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("dist a b 7\ndist a c x/y\ndist b c 8\n")
    r = run("tightspan", str(f))
    assert r.returncode == 2
    assert "line 2" in r.stderr


def test_missing_pair_exit_2(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("dist a b 7\ndist a c 5\n")
    r = run("tightspan", str(f))
    assert r.returncode == 2


def test_sparsify_star(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text(STAR)
    r = run("sparsify", str(f), "--seed", "5", "--samples", "40")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["cost"]["ratio"] == "1"
    assert data["monte_carlo"]["samples"] == 40


def test_sparsify_deterministic(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text(STAR)
    r1 = run("sparsify", str(f), "--seed", "11", "--samples", "25")
    r2 = run("sparsify", str(f), "--seed", "11", "--samples", "25")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_sparsify_rejects_six_terminals(tmp_path):
    lines = []
    names = "abcdef"
    for t in names:
        lines.append(f"terminal {t} {t}")
    for i, t in enumerate(names):
        for u in names[i + 1:]:
            lines.append(f"edge {t} {u} 1 2")
    f = tmp_path / "g.txt"
    f.write_text("\n".join(lines) + "\n")
    r = run("sparsify", str(f), "--seed", "1", "--samples", "5")
    assert r.returncode == 2
    assert "5 terminal" in r.stderr


def test_quality_identity(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text(STAR)
    r = run("quality", str(f), str(f), "--random-demands", "3", "--seed", "2",
            "--epsilon", "1/100")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    env = 101 / 99
    from fractions import Fraction
    for ratio in data["ratios"]:
        assert 1 / env <= float(Fraction(ratio)) <= env


def test_quality_missing_terminal_exit_2(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text(STAR)
    h = tmp_path / "h.txt"
    h.write_text("terminal a a\nterminal b b\nedge a b 1 7\n")
    r = run("quality", str(f), str(h), "--random-demands", "1", "--seed", "2")
    assert r.returncode == 2


def test_quality_negative_random_demands_exit_2(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(STAR)
    assert main(["quality", str(f), str(f), "--random-demands", "-1", "--seed", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--random-demands must be nonnegative, got -1" in err
    assert "no demands given" not in err


def test_quality_of_contracted_sparsifier(tmp_path):
    # five-terminal graph with steiner points; contraction never hurts routing
    lines = ["terminal %s %s" % (t, t) for t in "abcde"]
    import itertools as it
    d = {("a","b"): 4, ("a","c"): 6, ("a","d"): 6, ("a","e"): 4,
         ("b","c"): 4, ("b","d"): 6, ("b","e"): 6, ("c","d"): 4,
         ("c","e"): 6, ("d","e"): 4}
    for (t, u), v in d.items():
        lines.append(f"edge {t} {u} 1 {v}")
    for s in range(3):
        for t in "abcde":
            lines.append(f"edge x{s} {t} 2 4")
    g = tmp_path / "g.txt"
    g.write_text("\n".join(lines) + "\n")
    r = run("sparsify", str(g), "--seed", "3", "--samples", "20")
    assert r.returncode == 0
    h = tmp_path / "h.txt"
    h.write_text(json.loads(r.stdout)["sparsifier"])
    q = run("quality", str(g), str(h), "--random-demands", "4", "--seed", "8",
            "--epsilon", "1/100")
    assert q.returncode == 0
    data = json.loads(q.stdout)
    from fractions import Fraction
    # ratios are cong_G / cong_H; contraction keeps cong_H <= cong_G (1 + 2 eps)
    assert float(Fraction(data["min_ratio"])) >= 1 / (1 + 2 / 100)


def test_hard6_summary_and_files(tmp_path):
    out = tmp_path / "inst"
    r = run("hard6", "--L", "4", "--snap-grid", "1", "--out", str(out))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert int(data["opt"].split("/")[0]) <= 90 * 16 * max(
        1, int(data["opt"].split("/")[1]) if "/" in data["opt"] else 1)
    assert (out / "graph.txt").exists()
    assert (out / "instance.json").exists()
    assert (out / "diagnostics.json").exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    from fractions import Fraction
    assert Fraction(diag["total_loss"]) > 0
    # graph round-trips through the text format
    from spanflow.textio import load_graph
    g = load_graph((out / "graph.txt").read_text())
    assert data["edges"] == len(g.edges)


def test_hard6_ave_sidecar(tmp_path):
    out = tmp_path / "ave"
    r = run("hard6", "--L", "2", "--ave", "--gamma", "1/1000", "--out", str(out))
    assert r.returncode == 0
    sidecar = json.loads((out / "instance.json").read_text())
    assert sidecar["gamma"] == "1/1000"
    assert sidecar["demand"] is not None


def test_hard6_deterministic():
    r1 = run("hard6", "--L", "3")
    r2 = run("hard6", "--L", "3")
    assert r1.stdout == r2.stdout


#: sha256 of stdout (the --out directory written as OUTDIR) and of every
#: --out file, recorded from the Fraction implementation the integer-lattice
#: kernel replaced
HARD6_GOLDEN = {
    ("--L", "5", "--snap-grid", "3"): {
        "stdout": "46e65204fab5d454412e238d873dde4909584f936e1eb3d254c83b58a6b708b9",
        "diagnostics.json": "b2814aecfb5ad9e82e65cf6a87d507b0287b299f138844d05df430af102d30c7",
        "graph.txt": "bbd43bed4378aff0f2c25466afc3189e4bcca5eed9b730fc65b169b38bfa8ace",
        "instance.json": "f9f09467218bc3ecab085fd8f5d1328ab2a9bcdd6b229e21753efdcc9712d359",
    },
    ("--L", "4", "--ave", "--snap-grid", "2"): {
        "stdout": "20755b0e25c51d249019de18b9d1832a4a75d0e2592349a42ef9ad890cf2932b",
        "diagnostics.json": "2e1e3e04e90841f71619c90608e499c6d202725575b2b92b333b06774c17974c",
        "graph.txt": "cbc13fda532681ce6c0167f3b5e6bf6783efd6c0f844e48539a79a4074ddabf1",
        "instance.json": "7b53aabb44b257ea8836cc43552807c47106dafe6c63a50f0705f5aef849199d",
    },
}


def test_hard6_golden_bytes(tmp_path):
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    for n, (args, golden) in enumerate(HARD6_GOLDEN.items()):
        out = tmp_path / f"out{n}"
        r = run("hard6", *args, "--out", str(out))
        assert r.returncode == 0
        got = {"stdout": sha(r.stdout.replace(str(out), "OUTDIR").encode())}
        got.update((f.name, sha(f.read_bytes())) for f in out.iterdir())
        assert got == golden, args


def test_hard6_l1_exit_2():
    r = run("hard6", "--L", "1")
    assert r.returncode == 2


def test_text_format_rendering(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text(METRIC_EX1)
    r = run("--format", "text", "project", str(f), "3,6,4")
    assert r.returncode == 0
    assert "projected" in r.stdout


# -- golden stdout of tightspan and sparsify ----------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _in_process(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


TIGHTSPAN_METRICS = {
    "k4": lambda: TerminalMetric.from_pairs(
        {("a", "b"): F(9, 2), ("a", "c"): 7, ("a", "d"): 6,
         ("b", "c"): 4, ("b", "d"): F(13, 2), ("c", "d"): 5}),
    "k5": lambda: rand_metric(random.Random(2), 5, den=8),
    "metric6": metric6,
    "rand6": lambda: rand_metric(random.Random(3), 6),
    "tie6": lambda: tie_metric(random.Random(0), 6),
}

#: sha256 of `tightspan` stdout, recorded before the tight-system solvers
#: were merged into one
TIGHTSPAN_GOLDEN = {
    "k4": "f7613bf39081cb4f7c9357da278d6a1d811335f970ee26f7112bb59e85fededf",
    "k5": "006dcb6c029226fac6db6355cefe499ae20e38937ab8df0cbedddebb5abfa9e5",
    "metric6": "8ebcbe0fc37ddbaa78027a6d3944eb8a4c19eb60c3b28ecf05b268b55b81dac2",
    # recorded from the brute-force vertex enumeration the edge walk replaced
    "rand6": "b48323df695e13f916266221779475c9badea2e76087217370beb577f00063c4",
    "tie6": "b5e2e1bd9a5723981360905d267f0ec2a21eaf8c1613beb84e4e1971bec5f10c",
}


def test_tightspan_golden_bytes(tmp_path, capsys):
    got = {}
    for name, build in TIGHTSPAN_METRICS.items():
        f = tmp_path / f"{name}.txt"
        f.write_text(dump_metric(build()))
        got[name] = _sha(_in_process(capsys, "tightspan", str(f)))
    assert got == TIGHTSPAN_GOLDEN


def _tree_metric() -> TerminalMetric:
    # leaves a, b on x; c on y; d, e on z; path x - y - z
    hang = {"a": ("x", F(1)), "b": ("x", F(2)), "c": ("y", F(3, 2)),
            "d": ("z", F(1)), "e": ("z", F(5, 2))}
    pos = {"x": F(0), "y": F(2), "z": F(5)}
    return TerminalMetric.from_pairs(
        {(t, u): hang[t][1] + abs(pos[hang[t][0]] - pos[hang[u][0]]) + hang[u][1]
         for t, u in combinations("abcde", 2)})


def _rectangle_metric() -> TerminalMetric:
    # a 2 x 3 rectangle with corners a..d and pendants 1, 1/2, 3/2, 2
    corner = {"a": (0, 0), "b": (2, 0), "c": (2, 3), "d": (0, 3)}
    pend = {"a": F(1), "b": F(1, 2), "c": F(3, 2), "d": F(2)}
    return TerminalMetric.from_pairs(
        {(t, u): pend[t] + abs(corner[t][0] - corner[u][0])
         + abs(corner[t][1] - corner[u][1]) + pend[u]
         for t, u in combinations("abcd", 2)})


def _cell_points(cx, rng):
    """Every complex vertex, and per cell its centroid and a random convex mix."""
    ts = cx.metric.terminals
    pts = list(cx.vertices)
    for cell in cx.cells:
        corners = [cx.vertices[i] for i in cell.vertex_ids]
        for weights in ([1] * len(corners), [rng.randint(1, 4) for _ in corners]):
            total = sum(weights)
            pts.append({t: sum(w * p[t] for w, p in zip(weights, corners)) / total
                        for t in ts})
    return pts


def _pendant_points(cx):
    """Points a third and two thirds along each 1-cell that ends at a terminal."""
    m = cx.metric
    rows = {tuple(m.row(t).values()) for t in m.terminals}
    pts = []
    for cell in cx.cells:
        if cell.dim != 1:
            continue
        a, b = (cx.vertices[i] for i in cell.vertex_ids)
        if tuple(a.values()) in rows or tuple(b.values()) in rows:
            pts += [{t: (2 * a[t] + b[t]) / 3 for t in m.terminals},
                    {t: (a[t] + 2 * b[t]) / 3 for t in m.terminals}]
    return pts


def _fixture_graph(m: TerminalMetric, points, n_steiner: int, seed: int) -> TerminalGraph:
    """Terminals realizing m, one vertex at each span point, random Steiner stars."""
    rng = random.Random(seed)
    ts = list(m.terminals)
    verts = list(ts)
    edges = [(t, u, F(rng.randint(1, 4)), m.d(t, u)) for t, u in combinations(ts, 2)]
    stars = [dict(p) for p in points]
    for _ in range(n_steiner):
        stars.append({t: max(m.d(t, u) for u in ts) * (1 + F(rng.randint(0, 8), 8)) / 2
                      for t in ts})
    for i, p in enumerate(stars):
        verts.append(f"w{i}")
        edges += [(f"w{i}", t, F(rng.randint(1, 4)), p[t]) for t in ts]
    return TerminalGraph(vertices=verts, edges=edges, terminals={t: t for t in ts})


def _sparsify_fixtures():
    pend = {"a": F(1), "b": F(3, 2), "c": F(2), "d": F(1, 2), "e": F(1)}
    shapes = {
        "fan": (type1_metric(pend, {("a", "b"): 2, ("b", "c"): 1, ("c", "d"): 3,
                                    ("d", "e"): F(5, 2), ("e", "a"): 1}), "_FanModel"),
        "fold": (type2_metric(7, 6, 2, 1, F(3, 2), pend), "_PlanarModel"),
        "overlap": (type3_metric(2, 3, 1, 2, F(3, 2), pend), "_PlanarModel"),
        "tree": (_tree_metric(), "_TreeModel"),
    }
    for n, (name, (m, model)) in enumerate(shapes.items()):
        pts = _cell_points(enumerate_complex(m), random.Random(n))
        yield name, _fixture_graph(m, pts, 4, seed=n), model
    m = _rectangle_metric()
    pts = _pendant_points(enumerate_complex(m))
    yield "pendant", _fixture_graph(m, pts, 3, seed=9), "_PlanarModel"


#: sha256 of `sparsify --seed 3 --samples 40` stdout, recorded before the
#: tree and planar models shared one segment localizer
SPARSIFY_GOLDEN = {
    "fan": "02ced171664e7f69dce5a0b45cdb88084d7570d849b636269d0f35063fa2c6cd",
    "fold": "f714b048c1a3c32a9933434c843847bd89628ba9c6016b0ad9f0e6c22331e68f",
    "overlap": "817dd2388c74b12cb6246c97b27fc50c8509b5daa8bea1ea44b93f7351c5f809",
    "tree": "eb6ef61905d3efd985715740bde462d1bfe3cf0f7d114fe9c41d7cf8b5f43c9f",
    "pendant": "b3fcd4b42b42308866d1d88de76e408485b80aa256fde405a74767a8d6de5212",
}


def test_sparsify_golden_bytes(tmp_path, capsys):
    got, models = {}, {}
    for name, g, model in _sparsify_fixtures():
        models[name] = type(Decomposer(project_graph(g)).model).__name__
        assert models[name] == model, name
        f = tmp_path / f"{name}.txt"
        f.write_text(dump_graph(g))
        got[name] = _sha(_in_process(capsys, "sparsify", str(f), "--seed", "3",
                                     "--samples", "40"))
    assert got == SPARSIFY_GOLDEN


def test_sparsify_exit_2_when_no_model_fits(tmp_path, capsys, monkeypatch):
    def rejecting(reason):
        def model(cx, scale):
            raise MetricError(reason)
        return model

    monkeypatch.setattr(decompose, "_FanModel", rejecting("no fan here"))
    monkeypatch.setattr(decompose, "_PlanarModel", rejecting("no plane here"))
    g = {name: g for name, g, _ in _sparsify_fixtures()}["fold"]
    f = tmp_path / "fold.txt"
    f.write_text(dump_graph(g))
    assert main(["sparsify", str(f), "--seed", "3", "--samples", "40"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "fan: no fan here" in err and "planar: no plane here" in err
