"""Output checks: reference records and stated properties.

A job's *record* is a flat map from field path to value.  JSON objects are
flattened key by key (up to `MAX_KEYS` keys); lists, larger objects and long
strings are replaced by a digest of their canonical JSON.  Three kinds of
values compare differently against a reference recorded from an earlier
commit:

* exact fields (rationals as strings, integers, booleans, digests) must be
  equal;
* Monte Carlo standard errors (`stderr`, `stderr_sum`) must agree within the
  relative tolerance `STDERR_RTOL` (absolute below 1);
* concurrent-flow values (`lambda`, quality ratios) must agree within the
  envelope factor (1 + eps) / (1 - eps) that the program reports.

Fields the reference lacks are ignored, so added outputs pass.  Property checks
recompute what the program states about its own output, using only this
module's independent exact arithmetic.
"""
from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from fractions import Fraction
from itertools import combinations

MAX_KEYS = 64
MAX_STR = 48
STDERR_RTOL = 1e-6
STDERR_FIELDS = ("stderr", "stderr_sum")
ENVELOPE_FIELDS = ("lambda", "max_ratio", "min_ratio", "ratios")
ENVELOPE_PREFIX = "env:"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "#" + hashlib.sha256(text.encode()).hexdigest()[:20]


def flatten(obj, prefix: str = "", out: dict | None = None) -> dict:
    if out is None:
        out = {}
    if isinstance(obj, dict) and len(obj) <= MAX_KEYS:
        for k, v in obj.items():
            flatten(v, f"{prefix}{k}.", out)
        return out
    key = prefix[:-1]
    leaf = key.rpartition(".")[2]
    if leaf in ENVELOPE_FIELDS:
        out[key] = ENVELOPE_PREFIX + json.dumps(obj, sort_keys=True)
    elif isinstance(obj, (dict, list)) or (isinstance(obj, str) and len(obj) > MAX_STR):
        out[key] = digest(obj)
    else:
        out[key] = obj
    return out


# -- comparison ----------------------------------------------------------------


def _values(text: str) -> list[Fraction]:
    obj = json.loads(text[len(ENVELOPE_PREFIX):])
    return [Fraction(x) for x in (obj if isinstance(obj, list) else [obj])]


def compare(ref: dict, got: dict, envelope: Fraction) -> list[str]:
    """Mismatches of `got` against `ref`; keys only in `got` are ignored."""
    problems = []
    for key, want in ref.items():
        if key not in got:
            problems.append(f"{key}: missing")
            continue
        have = got[key]
        leaf = key.rpartition(".")[2]
        if leaf in STDERR_FIELDS:
            ok = (isinstance(have, (int, float)) and isinstance(want, (int, float))
                  and abs(have - want) <= STDERR_RTOL * max(1.0, abs(have), abs(want)))
        elif isinstance(want, str) and want.startswith(ENVELOPE_PREFIX):
            ok = isinstance(have, str) and have.startswith(ENVELOPE_PREFIX)
            if ok:
                a, b = _values(want), _values(have)
                ok = len(a) == len(b) and all(x / envelope <= y <= x * envelope
                                              for x, y in zip(a, b))
        else:
            ok = have == want
        if not ok:
            problems.append(f"{key}: expected {want!r}, got {have!r}")
    return problems


# -- independent exact helpers ------------------------------------------------------


def parse_graph(text: str):
    """(edges, terminals) of the graph text format; rationals as Fractions."""
    edges, terminals = [], {}
    for line in text.splitlines():
        f = line.split()
        if not f or f[0].startswith("#"):
            continue
        if f[0] == "edge":
            edges.append((f[1], f[2], Fraction(f[3]), Fraction(f[4])))
        elif f[0] == "terminal":
            terminals[f[1]] = f[2]
    return edges, terminals


def parse_metric(text: str) -> tuple[list[str], dict]:
    names, pairs = [], {}
    for line in text.splitlines():
        f = line.split()
        if not f:
            continue
        _, t, u, v = f
        pairs[(t, u)] = pairs[(u, t)] = Fraction(v)
        for x in (t, u):
            if x not in names:
                names.append(x)
    return names, pairs


def max_flow(edges, s, t) -> Fraction:
    """Exact undirected s-t max flow (Edmonds-Karp on Fractions)."""
    cap: dict = {}
    adj: dict = {}
    for u, v, c, _ in edges:
        for a, b in ((u, v), (v, u)):
            cap[(a, b)] = cap.get((a, b), Fraction(0)) + c
            adj.setdefault(a, set()).add(b)
    total = Fraction(0)
    while True:
        prev = {s: None}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for w in adj.get(u, ()):
                if w not in prev and cap[(u, w)] > 0:
                    prev[w] = u
                    queue.append(w)
        if t not in prev:
            return total
        path, node = [], t
        while prev[node] is not None:
            path.append((prev[node], node))
            node = prev[node]
        push = min(cap[e] for e in path)
        for a, b in path:
            cap[(a, b)] -= push
            cap[(b, a)] += push
        total += push


def dijkstra(edges, source, lengths=None) -> dict:
    adj: dict = {}
    for i, (u, v, _, length) in enumerate(edges):
        w = length if lengths is None else lengths[i]
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    dist = {source: Fraction(0)}
    heap, done, n = [(Fraction(0), 0, source)], set(), 0
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for w, length in adj.get(u, ()):
            if w not in dist or d + length < dist[w]:
                dist[w] = d + length
                n += 1
                heapq.heappush(heap, (dist[w], n, w))
    return dist


def in_span(names, pairs, x: dict) -> bool:
    """x is a valid vector and each coordinate is zero or attains a tight pair."""
    if any(x[t] < 0 for t in names):
        return False
    if any(x[t] + x[u] < pairs[(t, u)] for t, u in combinations(names, 2)):
        return False
    return all(x[t] == 0 or any(x[t] + x[u] == pairs[(t, u)] for u in names if u != t)
               for t in names)


def envelope_of(epsilon) -> Fraction:
    eps = Fraction(epsilon)
    return (1 + eps) / (1 - eps)
