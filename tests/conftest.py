import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

# child processes (`python -m spanflow.cli`, possibly run from another
# directory) must import this checkout's package
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

from spanflow.metric import TerminalMetric
from spanflow.graphs import TerminalGraph


def rand_metric(rng: random.Random, k: int, names=None, den: int = 1000) -> TerminalMetric:
    """Random metric with entries in [1, 2]; triangle holds automatically."""
    if names is None:
        names = [chr(ord("a") + i) for i in range(k)]
    pairs = {}
    for i in range(k):
        for j in range(i + 1, k):
            pairs[(names[i], names[j])] = Fraction(rng.randint(den, 2 * den), den)
    return TerminalMetric.from_pairs(pairs, terminals=names)


def tie_metric(rng: random.Random, k: int, hi: int = 3) -> TerminalMetric:
    """Shortest-path metric of a complete graph with integer weights in
    [1, hi]: small integers and many ties, so many pair systems are tight."""
    names = [chr(ord("a") + i) for i in range(k)]
    d = [[0 if i == j else rng.randint(1, hi) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i):
            d[i][j] = d[j][i]
    for via in range(k):
        for i in range(k):
            for j in range(k):
                d[i][j] = min(d[i][j], d[i][via] + d[via][j])
    return TerminalMetric.from_pairs(
        {(names[i], names[j]): d[i][j] for i in range(k) for j in range(i + 1, k)},
        terminals=names)


def rand_valid_vector(rng: random.Random, m: TerminalMetric) -> dict:
    """x_t in [max_u D(t,u)/2, max_u D(t,u)] is always a valid vector."""
    vec = {}
    for t in m.terminals:
        hi = max(m.d(t, u) for u in m.terminals)
        vec[t] = hi / 2 + Fraction(rng.randint(0, 2 ** 20), 2 ** 20) * hi / 2
    return vec


def graph_from_metric(m: TerminalMetric, n_steiner: int, rng: random.Random,
                      cap_hi: int = 4, den: int = 1000) -> TerminalGraph:
    """Complete terminal graph realizing m exactly, plus random Steiner stars.

    A Steiner length is hi/2 + (r/den) * hi/2 for a random r in [0, den],
    hi the terminal's largest distance, so the terminal metric stays m.
    """
    ts = list(m.terminals)
    verts = list(ts)
    edges = []
    for i, t in enumerate(ts):
        for u in ts[i + 1:]:
            edges.append((t, u, Fraction(1), m.d(t, u)))
    for s in range(n_steiner):
        vid = f"v{s}"
        verts.append(vid)
        for t in ts:
            hi = max(m.d(t, u) for u in ts)
            x_t = hi / 2 + Fraction(rng.randint(0, den), den) * hi / 2
            edges.append((vid, t, Fraction(rng.randint(1, cap_hi)), x_t))
    return TerminalGraph(vertices=verts, edges=edges, terminals={t: t for t in ts})


def rand_connected_graph(rng: random.Random, n: int, extra: int,
                         terminal_names=("s", "t")) -> TerminalGraph:
    verts = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n - 1):
        edges.append((verts[i], verts[i + 1],
                      Fraction(rng.randint(1, 8), rng.randint(1, 3)), Fraction(1)))
    for _ in range(extra):
        a, b = rng.sample(verts, 2)
        edges.append((a, b, Fraction(rng.randint(1, 8), rng.randint(1, 3)),
                      Fraction(rng.randint(1, 3))))
    picks = rng.sample(verts, len(terminal_names))
    return TerminalGraph(vertices=verts, edges=edges,
                         terminals=dict(zip(terminal_names, picks)))


def rand_multigraph(rng, n_terminals, n_steiner):
    """Terminal star plus Steiner-Steiner edges, parallel and long edges,
    zero-length edges and a self-loop."""
    ts = [f"t{i}" for i in range(n_terminals)]
    ss = [f"s{i}" for i in range(n_steiner)]
    verts = ts + ss
    edges = []

    def add(a, b, length):
        edges.append((a, b, Fraction(rng.randint(1, 5), rng.randint(1, 3)), length))

    def rand_len():
        return Fraction(rng.randint(0, 12), rng.randint(1, 4))

    for s in ss:
        for t in rng.sample(ts, rng.randint(1, n_terminals)):
            add(s, t, rand_len())
    for _ in range(2 * n_steiner):
        a, b = rng.sample(ss, 2)
        add(a, b, rand_len())
    for _ in range(4):  # parallel copies, some far longer than the path around
        u, v, _, length = rng.choice(edges)
        add(u, v, length + rng.choice([Fraction(0), Fraction(1, 3), Fraction(40)]))
    for _ in range(2):
        add(*rng.sample(verts, 2), Fraction(0))
    add(rng.choice(ss), rng.choice(ss), Fraction(0))
    loop = rng.choice(verts)
    add(loop, loop, Fraction(7))
    return TerminalGraph(vertices=verts, edges=edges,
                         terminals={t: t for t in ts})


@pytest.fixture
def rng():
    return random.Random(20240811)
