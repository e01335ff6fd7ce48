import hashlib
import json
import subprocess
import sys

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
