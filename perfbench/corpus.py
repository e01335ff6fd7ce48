"""Seeded input corpora for the three benchmark workloads.

This module never imports `spanflow`: the inputs must not change when the
program changes, so the five-terminal template metrics (fan, rectangle with
fold, two overlapping rectangles) are written out here from their closed
forms.  `build(workload, seed, root)` writes the input files under `root` and
returns the job list; the same seed always gives byte-identical files and the
same jobs.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

NAMES5 = ("a", "b", "c", "d", "e")
NAMES6 = ("a", "b", "c", "d", "e", "f")

# Distances of the fixed six-terminal metric of the hard instance.
D6 = {
    ("a", "b"): 2, ("a", "c"): 1, ("a", "d"): 3, ("a", "e"): 1, ("a", "f"): 2,
    ("b", "c"): 1, ("b", "d"): 3, ("b", "e"): 3, ("b", "f"): 2,
    ("c", "d"): 2, ("c", "e"): 2, ("c", "f"): 3,
    ("d", "e"): 2, ("d", "f"): 1, ("e", "f"): 1,
}

# sparsify: graph counts per pass and samples per job
SPARSIFY_SMALL = 48         # V = 35 (30 Steiner stars), E = 160
SPARSIFY_LARGE = 2          # V = 205 (200 Steiner stars), E = 1010
SPARSIFY_CLI_SAMPLES = {"small": 3, "large": 2}
SPARSIFY_EC_SAMPLES = {"small": 100, "large": 200}

# hard6: the (L, snap grid) ladder is fixed, so its jobs (and their
# references) do not depend on the seed.  Its ten slowest jobs lie beyond the
# 90th percentile of a 100-job pass, which then falls inside the six L = 6
# jobs.  L = 2 is excluded because it breaks the 90 L^2 bound.
HARD6_LADDER = [(L, g) for L in (6, 6, 7, 8) for g in (1, 2, 3)] + [(24, 2)]
HARD6_AVE = (3, 4, 5, 6, 3, 4, 5, 6)
HARD6_TIGHTSPAN = 15        # random 6-point metrics, plus metric6 itself
HARD6_PROJECT = 63

# quality: contracted-sparsifier jobs use fixed-size demand files, because the
# random pair count of --random-demands made the pass time vary by 11% from
# seed to seed.  The twelve average-variant solves at L = 3 (gamma varies) hold
# ranks 2-13 from the top of a 103-job pass, so its 90th percentile falls
# inside them, behind the L = 4 solve.
QUALITY_SMALL = 55          # V = 45 (40 Steiner stars), E = 210
QUALITY_LARGE = 2           # V = 205, E = 1010
QUALITY_PAIRS = 3           # terminal pairs in each fixed demand file
QUALITY_RANDOM_EVERY = 4    # every 4th small job adds --random-demands 1
QUALITY_AVE = [(2, 1), (4, 1)] + [(3, k) for k in range(1, 13)]
QUALITY_SINGLE = 32
EPSILON = "1/100"


def rat(x: Fraction) -> str:
    return str(Fraction(x))


def _quarter(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(4 * lo, 4 * hi), 4)


def _merge(pairs: dict) -> dict:
    return {(t, u) if t < u else (u, t): Fraction(v) for (t, u), v in pairs.items()}


def fan_metric(rng: random.Random) -> dict:
    """Five rectangles around a center: pendant and side lengths per terminal."""
    cyc = list(NAMES5)
    pend = {t: _quarter(rng, 1, 6) for t in cyc}
    side = {(cyc[i], cyc[(i + 1) % 5]): _quarter(rng, 1, 6) for i in range(5)}

    def s(t, u):
        return side[(t, u)] if (t, u) in side else side[(u, t)]

    pairs = {}
    for i, t in enumerate(cyc):
        nxt, nxt2 = cyc[(i + 1) % 5], cyc[(i + 2) % 5]
        prev, nxt3 = cyc[(i - 1) % 5], cyc[(i + 3) % 5]
        pairs[(t, nxt)] = pend[t] + pend[nxt] + s(prev, t) + s(nxt, nxt2)
        pairs[(t, nxt2)] = (pend[t] + pend[nxt2] + s(prev, t) + s(t, nxt)
                            + s(nxt, nxt2) + s(nxt2, nxt3))
    return _merge(pairs)


def fold_metric(rng: random.Random) -> dict:
    """A rectangle with corners a..d and the apex e hanging off a diagonal fold."""
    a, b, c, d, e = NAMES5
    W, H = _quarter(rng, 6, 9), _quarter(rng, 6, 9)
    P, Q, h = _quarter(rng, 1, 2), _quarter(rng, 1, 2), _quarter(rng, 1, 2)
    p = {t: _quarter(rng, 1, 6) for t in NAMES5}
    return _merge({
        (a, b): p[a] + W + p[b], (b, c): p[b] + H + p[c],
        (c, d): p[c] + W + p[d], (a, d): p[a] + H + p[d],
        (a, c): p[a] + W + H + p[c], (b, d): p[b] + W + H + p[d],
        (a, e): p[a] + P + Q + h + p[e],
        (b, e): p[b] + (W - P) + Q + h + p[e],
        (c, e): p[c] + (W - P) + (H - Q) - h + p[e],
        (d, e): p[d] + P + (H - Q) + h + p[e],
    })


def overlap_metric(rng: random.Random) -> dict:
    """Two rectangles overlapping along a corner fold."""
    a, b, c, d, e = NAMES5
    ax, ax2, ay, ay2 = (_quarter(rng, 1, 6) for _ in range(4))
    h = _quarter(rng, 1, 2)
    p = {t: _quarter(rng, 1, 6) for t in NAMES5}
    X30, Y30 = ax + h + ax2, ay + h + ay2
    return _merge({
        (a, b): p[a] + Y30 + p[b], (a, d): p[a] + X30 + p[d],
        (a, c): p[a] + X30 + (ay + h) + p[c], (a, e): p[a] + (ax + h) + Y30 + p[e],
        (b, d): p[b] + X30 + Y30 + p[d], (b, e): p[b] + ax + h + p[e],
        (b, c): p[b] + X30 + ay2 + p[c], (c, d): p[c] + ay + h + p[d],
        (d, e): p[d] + ax2 + ay + h + ay2 + p[e],
        (c, e): p[c] + (h + ax2) + h + ay2 + p[e],
    })


def random_metric(rng: random.Random, names=NAMES5, den: int = 1000) -> dict:
    """Entries in [1, 2], so every triangle inequality holds."""
    return {(t, u): Fraction(rng.randint(den, 2 * den), den)
            for i, t in enumerate(names) for u in names[i + 1:]}


def tree_metric(rng: random.Random) -> dict:
    """Path lengths in a random weighted tree with the terminals as leaves."""
    adj: dict[str, list] = {}

    def link(u, v, w):
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))

    link("h0", "h1", _quarter(rng, 1, 4))
    link("h1", "h2", _quarter(rng, 1, 4))
    hubs = ["h0", "h0", "h1", "h2", "h2"]
    for t, hub in zip(NAMES5, hubs):
        link(t, hub, _quarter(rng, 1, 4))

    def dists(src):
        out, stack = {src: Fraction(0)}, [src]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in out:
                    out[v] = out[u] + w
                    stack.append(v)
        return out

    return {(t, u): dists(t)[u] for i, t in enumerate(NAMES5) for u in NAMES5[i + 1:]}


# Equal parts of the three generic shapes, plus random and tree metrics so
# that the tree and snap models appear too.
METRIC_CYCLE = (("fan", fan_metric), ("fold", fold_metric), ("overlap", overlap_metric),
                ("fan", fan_metric), ("fold", fold_metric), ("overlap", overlap_metric),
                ("random", random_metric), ("tree", tree_metric))


def five_point_metric(rng: random.Random, index: int) -> tuple[str, dict]:
    kind, make = METRIC_CYCLE[index % len(METRIC_CYCLE)]
    return kind, make(rng)


def dist(pairs: dict, t: str, u: str) -> Fraction:
    return pairs[(t, u)] if (t, u) in pairs else pairs[(u, t)]


def graph_text(pairs: dict, names, n_steiner: int, rng: random.Random) -> str:
    """Complete terminal graph realizing the metric plus Steiner stars.

    Star lengths form a valid vector (x_t >= max_u D(t, u) / 2), so the
    terminal distances of the graph are exactly the metric.
    """
    lines = [f"terminal {t} {t}" for t in names]
    for i, t in enumerate(names):
        for u in names[i + 1:]:
            lines.append(f"edge {t} {u} 1 {rat(dist(pairs, t, u))}")
    hi = {t: max(dist(pairs, t, u) for u in names if u != t) for t in names}
    for s in range(n_steiner):
        for t in names:
            x = hi[t] / 2 + Fraction(rng.randint(0, 1000), 1000) * hi[t] / 2
            lines.append(f"edge v{s} {t} {rng.randint(1, 4)} {rat(x)}")
    return "\n".join(lines) + "\n"


def metric_text(pairs: dict, names) -> str:
    return "".join(f"dist {t} {u} {rat(dist(pairs, t, u))}\n"
                   for i, t in enumerate(names) for u in names[i + 1:])


def valid_vector(pairs: dict, names, rng: random.Random) -> list[Fraction]:
    """x_t in [max_u D(t,u)/2, max_u D(t,u)] is always a valid vector."""
    out = []
    for t in names:
        hi = max(dist(pairs, t, u) for u in names if u != t)
        out.append(hi / 2 + Fraction(rng.randint(0, 2 ** 20), 2 ** 20) * hi / 2)
    return out


def single_commodity_text(rng: random.Random) -> str:
    """A small random connected graph with terminals s and t."""
    n, extra = rng.randint(4, 8), rng.randint(2, 7)
    verts = [f"n{i}" for i in range(n)]
    lines = []
    for i in range(n - 1):
        lines.append(f"edge {verts[i]} {verts[i + 1]} "
                     f"{rat(Fraction(rng.randint(1, 8), rng.randint(1, 3)))} 1")
    for _ in range(extra):
        a, b = rng.sample(verts, 2)
        lines.append(f"edge {a} {b} {rat(Fraction(rng.randint(1, 8), rng.randint(1, 3)))} "
                     f"{rng.randint(1, 3)}")
    s, t = rng.sample(verts, 2)
    return f"terminal s {s}\nterminal t {t}\n" + "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads: each returns (files, jobs); files maps relative names to text


def _sparsify(rng: random.Random):
    files, jobs = {}, []
    sizes = ["small"] * SPARSIFY_SMALL + ["large"] * SPARSIFY_LARGE
    for i, size in enumerate(sizes):
        kind, pairs = five_point_metric(rng, i)
        name = f"g{i:03d}.txt"
        files[name] = graph_text(pairs, NAMES5, 30 if size == "small" else 200, rng)
        meta = {"graph": name, "metric": metric_text(pairs, NAMES5), "shape": kind}
        jobs.append({"kind": "cli", "argv": ["sparsify", "@" + name, "--seed",
                                             str(rng.randint(0, 10 ** 6)), "--samples",
                                             str(SPARSIFY_CLI_SAMPLES[size])], **meta})
        jobs.append({"kind": "expected_cost", "samples": SPARSIFY_EC_SAMPLES[size],
                     "seed": rng.randint(0, 10 ** 6), **meta})
    return files, jobs


def _hard6(rng: random.Random):
    files, jobs = {}, []
    for i, (L, g) in enumerate(HARD6_LADDER):
        argv = ["hard6", "--L", str(L), "--snap-grid", str(g), "--out", f"@out/{i:02d}-L{L}g{g}"]
        jobs.append({"kind": "cli", "argv": argv, "L": L, "snap_grid": g})
    for L in HARD6_AVE:
        eta = Fraction(1, 10 ** 9)
        offsets = {f"{t},{u}": rat(Fraction(rng.randint(-100, 100), 1000) * eta)
                   for (t, u) in D6}
        jobs.append({"kind": "ave", "argv": ["hard6", "--L", str(L), "--ave"],
                     "L": L, "eta": rat(eta), "offsets": offsets})
    metrics = {"m6.txt": D6}
    for i in range(HARD6_TIGHTSPAN):
        metrics[f"r{i:02d}.txt"] = random_metric(rng, NAMES6)
    for name, pairs in metrics.items():
        files[name] = metric_text(pairs, NAMES6)
        jobs.append({"kind": "cli", "argv": ["tightspan", "@" + name], "metric": files[name]})
    names = list(metrics)
    for i in range(HARD6_PROJECT):
        name = names[i % len(names)]
        vec = ",".join(rat(x) for x in valid_vector(metrics[name], NAMES6, rng))
        jobs.append({"kind": "cli", "argv": ["project", "@" + name, vec],
                     "metric": files[name]})
    return files, jobs


def _quality(rng: random.Random):
    files, jobs = {}, []
    sizes = ["small"] * QUALITY_SMALL + ["large"] * QUALITY_LARGE
    pair_list = [(t, u) for i, t in enumerate(NAMES5) for u in NAMES5[i + 1:]]
    for i, size in enumerate(sizes):
        kind, pairs = five_point_metric(rng, i)
        name, demand = f"g{i:03d}.txt", f"d{i:03d}.txt"
        files[name] = graph_text(pairs, NAMES5, 40 if size == "small" else 200, rng)
        files[demand] = "".join(
            f"demand {t} {u} {rat(Fraction(rng.randint(1, 8), rng.randint(1, 4)))}\n"
            for t, u in sorted(rng.sample(pair_list, QUALITY_PAIRS)))
        argv = ["quality", f"@q{i:03d}/G.txt", f"@q{i:03d}/H.txt", "--demands", "@" + demand,
                "--epsilon", EPSILON]
        if size == "small" and i % QUALITY_RANDOM_EVERY == 0:
            argv += ["--random-demands", "1", "--seed", str(rng.randint(0, 10 ** 6))]
        jobs.append({"kind": "quality", "graph": name, "shape": kind,
                     "sample_seed": rng.randint(0, 10 ** 6), "argv": argv,
                     "out": f"q{i:03d}"})
    for L, k in QUALITY_AVE:
        jobs.append({"kind": "ave_lp", "L": L, "gamma": rat(Fraction(k, 10 ** 15)),
                     "epsilon": EPSILON})
    for i in range(QUALITY_SINGLE):
        name = f"s{i:03d}.txt"
        files[name] = single_commodity_text(rng)
        d = Fraction(rng.randint(1, 5), rng.randint(1, 2))
        jobs.append({"kind": "single", "graph": name, "demand": rat(d),
                     "epsilon": EPSILON})
    return files, jobs


WORKLOADS = {"sparsify": _sparsify, "hard6": _hard6, "quality": _quality}


def generate(workload: str, seed: int):
    """The (files, jobs) of one workload.

    Jobs run in the order they are generated, not shuffled: which jobs run
    before the heaviest one changes the heap it meets, and with it the peak
    resident memory and the job's time.
    """
    rng = random.Random(f"{workload}:{seed}")
    files, jobs = WORKLOADS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:03d}"
    return files, jobs


def build(workload: str, seed: int, root: Path) -> list[dict]:
    """Write the corpus under `root` and return its jobs (also in jobs.json)."""
    files, jobs = generate(workload, seed)
    root.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(files.items()):
        (root / name).write_text(text)
    (root / "jobs.json").write_text(json.dumps(jobs, sort_keys=True, indent=1) + "\n")
    return jobs
