"""Line-based text formats for metrics, graphs, and demands.

Rationals are written as `p/q`, plain integers, or finite decimals.  Lines
starting with `#` and blank lines are ignored.  Errors carry the 1-based line
number of the offending input.
"""
from __future__ import annotations

from fractions import Fraction

from .flow import Demand
from .graphs import Edge, TerminalGraph
from .metric import MetricError, TerminalMetric, as_fraction, pair_key


class TextFormatError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _records(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _rational(lineno: int, token: str) -> Fraction:
    try:
        return as_fraction(token)
    except MetricError:
        raise TextFormatError(lineno, f"malformed rational {token!r}") from None


def load_metric(text: str) -> TerminalMetric:
    """Parse `dist <t1> <t2> <rational>` lines; every pair must be present."""
    pairs: dict[tuple[str, str], Fraction] = {}
    order: list[str] = []
    for lineno, fields in _records(text):
        if fields[0] != "dist" or len(fields) != 4:
            raise TextFormatError(lineno, f"expected 'dist <t1> <t2> <value>', got {' '.join(fields)!r}")
        _, t, u, val = fields
        if t == u:
            raise TextFormatError(lineno, "distance requires two distinct terminals")
        key = pair_key(t, u)
        if key in pairs:
            raise TextFormatError(lineno, f"duplicate distance for pair ({t}, {u})")
        pairs[key] = _rational(lineno, val)
        for name in (t, u):
            if name not in order:
                order.append(name)
    if not pairs:
        raise TextFormatError(1, "no distances found")
    try:
        return TerminalMetric.from_pairs(pairs, terminals=order)
    except MetricError as exc:
        raise TextFormatError(1, str(exc)) from None


def dump_metric(m: TerminalMetric) -> str:
    lines = []
    ts = m.terminals
    for i, t in enumerate(ts):
        for u in ts[i + 1:]:
            lines.append(f"dist {t} {u} {m.d(t, u)}")
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> TerminalGraph:
    """Parse `edge <u> <v> <capacity> <length>` and `terminal <name> <vertex>`.

    Equal capacity or length tokens share one Fraction object.
    """
    edges = []
    terminals: dict[str, str] = {}
    vertices: list[str] = []
    seen: set[str] = set()
    parsed: dict[str, Fraction] = {}   # each distinct token parsed once

    def add_vertex(v: str):
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    def rational(lineno: int, token: str) -> Fraction:
        value = parsed.get(token)
        if value is None:
            value = parsed[token] = _rational(lineno, token)
        return value

    for lineno, fields in _records(text):
        if fields[0] == "edge":
            if len(fields) != 5:
                raise TextFormatError(lineno, "expected 'edge <u> <v> <capacity> <length>'")
            _, u, v, cap, length = fields
            add_vertex(u)
            add_vertex(v)
            edges.append(Edge(u, v, rational(lineno, cap), rational(lineno, length)))
        elif fields[0] == "terminal":
            if len(fields) != 3:
                raise TextFormatError(lineno, "expected 'terminal <name> <vertex>'")
            _, name, v = fields
            if name in terminals:
                raise TextFormatError(lineno, f"duplicate terminal {name}")
            add_vertex(v)
            terminals[name] = v
        else:
            raise TextFormatError(lineno, f"unknown record {fields[0]!r}")
    if not terminals:
        raise TextFormatError(1, "no terminals declared")
    try:
        return TerminalGraph(vertices=vertices, edges=edges, terminals=terminals)
    except ValueError as exc:
        raise TextFormatError(1, str(exc)) from None


def str_each(values: list) -> list[str]:
    """str() of every value, formatting each distinct object once: equal
    Fractions are often one shared object."""
    ids = list(map(id, values))
    text = {key: str(x) for key, x in dict(zip(ids, values)).items()}
    return list(map(text.__getitem__, ids))


def dump_graph(g: TerminalGraph) -> str:
    lines = [f"terminal {name} {v}" for name, v in g.terminals.items()]
    text = iter(str_each([x for e in g.edges for x in e[2:]]))   # capacity, length, ...
    lines += [f"edge {u} {v} {c} {x}" for (u, v, _, _), c, x in zip(g.edges, text, text)]
    return "\n".join(lines) + "\n"


def load_demand(text: str) -> Demand:
    """Parse `demand <t1> <t2> <rational>` lines into one demand."""
    entries: dict[tuple[str, str], Fraction] = {}
    for lineno, fields in _records(text):
        if fields[0] != "demand" or len(fields) != 4:
            raise TextFormatError(lineno, "expected 'demand <t1> <t2> <value>'")
        _, t, u, val = fields
        if t == u:
            raise TextFormatError(lineno, "demand requires two distinct terminals")
        key = pair_key(t, u)
        entries[key] = entries.get(key, Fraction(0)) + _rational(lineno, val)
    if not entries:
        raise TextFormatError(1, "no demand entries found")
    return Demand(entries)


def dump_demand(d: Demand) -> str:
    lines = [f"demand {t} {u} {v}" for (t, u), v in sorted(d.entries.items())]
    return "\n".join(lines) + "\n"
