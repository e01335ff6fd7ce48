from fractions import Fraction as F

import pytest

from spanflow.graphs import Edge, TerminalGraph
from spanflow.textio import TextFormatError, dump_graph, load_graph

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
