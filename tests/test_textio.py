from fractions import Fraction as F

import pytest

from spanflow.flow import Demand
from spanflow.graphs import Edge, TerminalGraph
from spanflow.textio import (TextFormatError, dump_demand, dump_graph, load_demand, load_graph,
                            load_metric)

TEXT = """\
# repeated capacity and length tokens
terminal s a
terminal t d
edge a b 1/2 3
edge b c 0.5 3
edge c d 1/2 7/4
edge a d 2 3
edge b d 1/2 7/4
edge a a 2 3
"""


def test_equal_tokens_share_one_fraction():
    g = load_graph(TEXT)
    caps = [e.capacity for e in g.edges]
    lengths = [e.length for e in g.edges]
    assert caps == [F(1, 2), F(1, 2), F(1, 2), F(2), F(1, 2), F(2)]
    assert lengths == [F(3), F(3), F(7, 4), F(3), F(7, 4), F(3)]
    # "1/2" and "0.5" parse to the same value, each token to one object
    assert caps[0] is caps[2] is caps[4]
    assert caps[1] == caps[0]
    assert caps[3] is caps[5]
    assert lengths[0] is lengths[1] is lengths[3] is lengths[5]
    assert lengths[2] is lengths[4]


def test_parsed_edges_are_kept_as_built(monkeypatch):
    import spanflow.textio as textio
    given = []

    def graph(**kw):
        given.extend(kw["edges"])
        return TerminalGraph(**kw)
    monkeypatch.setattr(textio, "TerminalGraph", graph)
    g = load_graph(TEXT)
    assert len(given) == len(g.edges) == 6
    assert all(type(e) is Edge for e in given)
    # the graph keeps each parsed edge, and its fields are the token objects
    assert all(kept is e for kept, e in zip(g.edges, given))
    assert given[0].capacity is given[2].capacity is given[4].capacity
    assert given[0].length is given[1].length is given[5].length


def test_dump_of_a_loaded_graph_is_unchanged():
    g = load_graph(TEXT)
    # the same graph from one fresh Fraction per token
    fresh = TerminalGraph(vertices=list(g.vertices),
                          edges=[(e.u, e.v, F(str(e.capacity)), F(str(e.length)))
                                 for e in g.edges],
                          terminals=dict(g.terminals))
    text = dump_graph(fresh)
    assert dump_graph(g) == text
    assert text.splitlines()[2:4] == ["edge a b 1/2 3", "edge b c 1/2 3"]
    assert dump_graph(load_graph(text)) == text


def test_malformed_token_reported_at_its_first_line():
    text = "terminal s a\nterminal t b\nedge a b 1 2\nedge a b 1/0x 1\nedge b a 1/0x 1\n"
    with pytest.raises(TextFormatError, match=r"line 4: malformed rational '1/0x'") as exc:
        load_graph(text)
    assert exc.value.line == 4
    with pytest.raises(TextFormatError, match=r"line 3: malformed rational '1/0'"):
        load_graph("terminal s a\nterminal t b\nedge a b 1/0 1\nedge a b 1 1/0\n")


def test_dump_demand_round_trips():
    # reversed and repeated pairs: the demand sums them into one sorted pair
    d = Demand({("b", "a"): 1, ("a", "b"): "1/2", ("c", "a"): F(2, 3), ("b", "c"): 0})
    assert d.entries == {("a", "b"): F(3, 2), ("a", "c"): F(2, 3), ("b", "c"): 0}
    text = dump_demand(d)
    assert text == "demand a b 3/2\ndemand a c 2/3\ndemand b c 0\n"
    assert load_demand(text).entries == d.entries
    parsed = load_demand("demand c a 1/3\ndemand b a 1\ndemand a c 1/3\ndemand a b 1/2\n")
    assert parsed.entries == {("a", "b"): F(3, 2), ("a", "c"): F(2, 3)}
    assert load_demand(dump_demand(parsed)).entries == parsed.entries


GRAPH_HEAD = "terminal s a\nterminal t b\nedge a b 1 1\n"


@pytest.mark.parametrize("load, text, line, message", [
    (load_metric, "dist a b 1\ndist a c\n", 2, "expected 'dist <t1> <t2> <value>', got 'dist a c'"),
    (load_metric, "# a graph record\nedge a b 1 1\n", 2,
     "expected 'dist <t1> <t2> <value>', got 'edge a b 1 1'"),
    (load_metric, "dist a a 1\n", 1, "distance requires two distinct terminals"),
    (load_metric, "dist a b 1\n\ndist b a 2\n", 3, "duplicate distance for pair (b, a)"),
    (load_metric, "dist a b 1\ndist a c one\n", 2, "malformed rational 'one'"),
    (load_metric, "# nothing\n\n", 1, "no distances found"),
    (load_metric, "dist a b 1\ndist b c 1\n", 1, "missing distance for pair (a, c)"),
    (load_graph, GRAPH_HEAD + "edge a b 1\n", 4, "expected 'edge <u> <v> <capacity> <length>'"),
    (load_graph, "terminal s\n", 1, "expected 'terminal <name> <vertex>'"),
    (load_graph, GRAPH_HEAD + "terminal s c\n", 4, "duplicate terminal s"),
    (load_graph, GRAPH_HEAD + "node c\n", 4, "unknown record 'node'"),
    (load_graph, "edge a b 1 1\n", 1, "no terminals declared"),
    (load_graph, GRAPH_HEAD + "edge a b 0 1\n", 4, "edge (a, b) has non-positive capacity 0"),
    (load_graph, GRAPH_HEAD + "edge b c 1 1\n# note\nedge a c 1 -2\n", 6,
     "edge (a, c) has negative length -2"),
    (load_graph, GRAPH_HEAD + "edge b c 1 1\nterminal u a\nedge a c 0 1\n", 5,
     "distinct terminals must occupy distinct vertices"),
    (load_graph, "edge a b -1 1\nterminal s a\n", 1, "edge (a, b) has non-positive capacity -1"),
    (load_demand, "demand a b 1\ndemand a c\n", 2, "expected 'demand <t1> <t2> <value>'"),
    (load_demand, "dist a b 1\n", 1, "expected 'demand <t1> <t2> <value>'"),
    (load_demand, "demand a b 1\ndemand c c 1\n", 2, "demand requires two distinct terminals"),
    (load_demand, "demand a b 1/0\n", 1, "malformed rational '1/0'"),
    (load_demand, "# none\n", 1, "no demand entries found"),
    (load_demand, "demand a b 1\ndemand c d -2\n", 2, "negative demand on (c, d)"),
    # a negative record is rejected at its line, although the pair sums to 2
    (load_demand, "demand a b 3\n# note\ndemand b a -1\n", 3, "negative demand on (b, a)"),
])
def test_every_text_error_names_its_line(load, text, line, message):
    with pytest.raises(TextFormatError) as exc:
        load(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_graph_errors_are_reported_at_the_first_failing_record():
    # each record alone is fine up to line 9; the graph's own checks fail at
    # the first record that breaks them, in file order
    body = "".join(f"edge v{i} v{i + 1} 1 1\n" for i in range(8))
    text = "terminal s v0\nterminal t v8\n" + body
    assert len(load_graph(text).edges) == 8
    for n in range(3, 11):
        lines = text.splitlines()
        bad = lines[:n - 1] + [lines[n - 1].replace(" 1 1", " 0 1")] + lines[n:]
        with pytest.raises(TextFormatError, match=rf"^line {n}: .*non-positive capacity 0"):
            load_graph("\n".join(bad) + "\n")
    # a bad edge after the terminal clash reports the clash, at its own line
    with pytest.raises(TextFormatError,
                       match="^line 3: distinct terminals must occupy distinct vertices"):
        load_graph(text.replace(body, "") + "terminal u v0\nedge v0 v1 0 1\n")
