"""Exact finite metrics on named terminals.

All distances are `fractions.Fraction`.  Nothing in this module (or in the
geometry built on top of it) uses floating point: tightness of a triangle
inequality is an exact equality test, and degenerate metrics must be detected
reliably.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

#: A distance vector: one rational coordinate per terminal name.
Vec = dict[str, Fraction]


class MetricError(ValueError):
    """Structural problem with a metric, a vector, or their combination."""


def pair_key(t: str, u: str) -> tuple[str, str]:
    """The unordered pair {t, u} as a sorted tuple: the key of pair tables."""
    return (t, u) if t <= u else (u, t)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and strings like '3/4', '7' or '2.5' exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MetricError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise MetricError(f"floating point distance {value!r} rejected; pass a Fraction or string")
    raise MetricError(f"cannot interpret {value!r} as a rational")


class TerminalMetric:
    """A symmetric rational distance matrix over an ordered set of names.

    The constructor only checks shape; use :func:`validate_metric` to test the
    metric axioms (it reports violations instead of raising, so callers can
    show all problems at once).
    """

    __slots__ = ("terminals", "_index", "_dist")

    def __init__(self, terminals: Sequence[str], dist: Sequence[Sequence]):
        terminals = tuple(str(t) for t in terminals)
        if len(set(terminals)) != len(terminals):
            raise MetricError("duplicate terminal names")
        k = len(terminals)
        if len(dist) != k or any(len(row) != k for row in dist):
            raise MetricError(f"distance matrix shape does not match {k} terminals")
        self.terminals = terminals
        self._index = {t: i for i, t in enumerate(terminals)}
        self._dist = tuple(tuple(as_fraction(x) for x in row) for row in dist)

    @classmethod
    def from_pairs(cls, pairs: Mapping[tuple[str, str], object],
                   terminals: Sequence[str] | None = None) -> "TerminalMetric":
        """Build from unordered-pair distances; every pair must be present."""
        if terminals is None:
            seen: list[str] = []
            for a, b in pairs:
                for t in (a, b):
                    if t not in seen:
                        seen.append(t)
            terminals = seen
        terminals = list(terminals)
        idx = {t: i for i, t in enumerate(terminals)}
        k = len(terminals)
        dist = [[Fraction(0)] * k for _ in range(k)]
        for (a, b), v in pairs.items():
            if a not in idx or b not in idx:
                raise MetricError(f"unknown terminal in pair ({a}, {b})")
            dist[idx[a]][idx[b]] = as_fraction(v)
            dist[idx[b]][idx[a]] = as_fraction(v)
        for a, b in combinations(terminals, 2):
            if (a, b) not in pairs and (b, a) not in pairs:
                raise MetricError(f"missing distance for pair ({a}, {b})")
        return cls(terminals, dist)

    def __len__(self) -> int:
        return len(self.terminals)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TerminalMetric)
                and self.terminals == other.terminals and self._dist == other._dist)

    def __repr__(self) -> str:
        return f"TerminalMetric({list(self.terminals)!r}, k={len(self)})"

    def index(self, t: str) -> int:
        try:
            return self._index[t]
        except KeyError:
            raise MetricError(f"unknown terminal {t!r}") from None

    def d(self, t: str, u: str) -> Fraction:
        return self._dist[self.index(t)][self.index(u)]

    def row(self, t: str) -> Vec:
        """The distance vector of terminal `t` (a point of the tight span)."""
        i = self.index(t)
        return {u: self._dist[i][j] for j, u in enumerate(self.terminals)}

    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._dist

    def vector(self, values: Iterable) -> Vec:
        """Build a Vec from coordinates given in terminal order."""
        vals = [as_fraction(v) for v in values]
        if len(vals) != len(self.terminals):
            raise MetricError(f"expected {len(self.terminals)} coordinates, got {len(vals)}")
        return dict(zip(self.terminals, vals))


def check_vector(m: TerminalMetric, x: Mapping[str, object]) -> Vec:
    """Normalize `x` to a Vec over exactly m's terminals (or raise)."""
    missing = [t for t in m.terminals if t not in x]
    if missing:
        raise MetricError(f"vector is missing coordinates {missing}")
    extra = [t for t in x if t not in m._index]
    if extra:
        raise MetricError(f"vector has unknown coordinates {extra}")
    return {t: as_fraction(x[t]) for t in m.terminals}


def validate_metric(m: TerminalMetric) -> list[str]:
    """Check metric axioms; an empty list means the metric is valid.

    Each violation names the offending pair or triple.  Strict positivity is
    required off the diagonal: distinct terminals at distance zero would merge
    in the tight span and are rejected here instead of downstream.
    """
    violations = []
    ts = m.terminals
    d = m._dist
    for i, t in enumerate(ts):
        if d[i][i] != 0:
            violations.append(f"nonzero diagonal at {t}: {d[i][i]}")
    for i, t in enumerate(ts):
        for j in range(i + 1, len(ts)):
            u = ts[j]
            if d[i][j] != d[j][i]:
                violations.append(f"asymmetry at ({t}, {u}): {d[i][j]} != {d[j][i]}")
            if d[i][j] <= 0:
                violations.append(f"non-positive distance at ({t}, {u}): {d[i][j]}")
    for i, j, l in combinations(range(len(ts)), 3):
        for (p, q, r) in ((i, j, l), (j, i, l), (l, i, j)):
            # p is the middle point: d(q, r) <= d(q, p) + d(p, r)
            if d[q][r] > d[q][p] + d[p][r]:
                violations.append(
                    f"triangle violation ({ts[q]}, {ts[p]}, {ts[r]}): "
                    f"{d[q][r]} > {d[q][p]} + {d[p][r]}")
    return violations


def is_valid_vector(m: TerminalMetric, x: Mapping[str, object]) -> bool:
    """True iff x_t + x_u >= D(t, u) for every pair, and x >= 0.

    Nonnegativity is the `t = u` case of the pair inequalities; tight-span
    membership and the projection both rely on it.
    """
    v = check_vector(m, x)
    if any(v[t] < 0 for t in m.terminals):
        return False
    ts = m.terminals
    for i, t in enumerate(ts):
        for u in ts[i + 1:]:
            if v[t] + v[u] < m.d(t, u):
                return False
    return True


def restrict(m: TerminalMetric, subset: Iterable[str]) -> TerminalMetric:
    """The metric induced on a nonempty subset of the terminals."""
    names = list(subset)
    if not names:
        raise MetricError("cannot restrict to an empty terminal set")
    if len(set(names)) != len(names):
        raise MetricError("duplicate terminal in subset")
    rows = [m.index(t) for t in names]
    dist = [[m._dist[i][j] for j in rows] for i in rows]
    return TerminalMetric(names, dist)


def collinear_triples(m: TerminalMetric) -> list[tuple[str, str, str]]:
    """All ordered triples (t, mid, u) with D(t, u) = D(t, mid) + D(mid, u).

    Deduplicated up to reversal: (t, mid, u) and (u, mid, t) are the same
    collinearity and only the orientation with t < u (in terminal order) is
    reported.
    """
    ts = m.terminals
    out = []
    for i, t in enumerate(ts):
        for j in range(i + 1, len(ts)):
            u = ts[j]
            for mid in ts:
                if mid == t or mid == u:
                    continue
                if m.d(t, u) == m.d(t, mid) + m.d(mid, u):
                    out.append((t, mid, u))
    return out
