import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from spanflow.metric import (MetricError, TerminalMetric, as_fraction, collinear_triples,
                             is_valid_vector, restrict, validate_metric)

from conftest import rand_metric


def m3():
    return TerminalMetric.from_pairs({("a", "b"): 7, ("a", "c"): 5, ("b", "c"): 8})


def metric6_pairs():
    return {("a", "b"): 2, ("a", "c"): 1, ("a", "d"): 3, ("a", "e"): 1, ("a", "f"): 2,
            ("b", "c"): 1, ("b", "d"): 3, ("b", "e"): 3, ("b", "f"): 2,
            ("c", "d"): 2, ("c", "e"): 2, ("c", "f"): 3,
            ("d", "e"): 2, ("d", "f"): 1, ("e", "f"): 1}


def test_validate_example_metric_is_clean():
    assert validate_metric(m3()) == []


def test_validate_reports_triangle_violation():
    m = TerminalMetric.from_pairs({("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 3})
    out = validate_metric(m)
    assert len(out) == 1
    assert "triangle" in out[0]
    for name in ("a", "b", "c"):
        assert name in out[0]


def test_validate_rejects_zero_off_diagonal():
    m = TerminalMetric(["a", "b"], [[0, 0], [0, 0]])
    out = validate_metric(m)
    assert any("non-positive" in v for v in out)


def test_shape_mismatch_is_structural_error():
    with pytest.raises(MetricError):
        TerminalMetric(["a", "b"], [[0, 1]])


def test_valid_vector_examples():
    m = m3()
    assert is_valid_vector(m, m.vector([3, 6, 4]))
    assert is_valid_vector(m, m.row("a"))
    assert not is_valid_vector(m, m.vector([0, 0, 0]))


def test_valid_vector_missing_coordinate():
    with pytest.raises(MetricError):
        is_valid_vector(m3(), {"a": F(1), "b": F(6)})


def test_restrict_six_terminal_table():
    m = TerminalMetric.from_pairs(metric6_pairs(), terminals="abcdef")
    r = restrict(m, ["b", "c", "d", "f"])
    expected = {("b", "c"): 1, ("b", "d"): 3, ("b", "f"): 2,
                ("c", "d"): 2, ("c", "f"): 3, ("d", "f"): 1}
    for (t, u), v in expected.items():
        assert r.d(t, u) == v


def test_len_and_repr():
    assert len(m3()) == 3
    assert repr(m3()) == "TerminalMetric(['a', 'b', 'c'], k=3)"


def test_restrict_identity_and_singleton():
    m = m3()
    assert restrict(m, m.terminals) == m
    single = restrict(m, ["b"])
    assert single.terminals == ("b",)
    assert single.d("b", "b") == 0


def test_restrict_unknown_name():
    with pytest.raises(MetricError):
        restrict(m3(), ["a", "zz"])


@pytest.mark.parametrize("build, message", [
    (lambda: as_fraction(1.5j), "cannot interpret 1.5j as a rational"),
    (lambda: TerminalMetric(["a", "b", "a"], [[0] * 3] * 3), "duplicate terminal names"),
    (lambda: restrict(m3(), []), "cannot restrict to an empty terminal set"),
    (lambda: restrict(m3(), ["a", "b", "a"]), "duplicate terminal in subset"),
], ids=["complex value", "duplicate names", "empty subset", "repeated subset"])
def test_public_metric_errors(build, message):
    with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
        build()


def test_collinear_triples_line():
    m = TerminalMetric.from_pairs({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2})
    assert collinear_triples(m) == [("a", "b", "c")]


def test_collinear_triples_six_terminal_contains_aef():
    m = TerminalMetric.from_pairs(metric6_pairs(), terminals="abcdef")
    triples = collinear_triples(m)
    assert ("a", "e", "f") in triples
    for t, mid, u in triples:
        assert m.d(t, u) == m.d(t, mid) + m.d(mid, u)


def test_collinear_triples_generic_metric_empty(rng):
    m = rand_metric(rng, 5, den=99991)
    assert collinear_triples(m) == []


def test_rows_valid_iff_metric_valid(rng):
    for _ in range(30):
        m = rand_metric(rng, rng.randint(3, 6))
        assert validate_metric(m) == []
        assert all(is_valid_vector(m, m.row(t)) for t in m.terminals)
    # break one triangle: some row becomes invalid
    bad = TerminalMetric.from_pairs({("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 3})
    assert not all(is_valid_vector(bad, bad.row(t)) for t in bad.terminals)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(3, 6))
def test_restrict_preserves_validity(seed, k):
    rng = random.Random(seed)
    m = rand_metric(rng, k)
    size = rng.randint(1, k)
    subset = rng.sample(list(m.terminals), size)
    assert validate_metric(restrict(m, subset)) == []


def test_fraction_parsing():
    m = TerminalMetric.from_pairs({("a", "b"): "3/4", ("a", "c"): "1.5", ("b", "c"): "2"})
    assert m.d("a", "b") == F(3, 4)
    assert m.d("a", "c") == F(3, 2)
    with pytest.raises(MetricError):
        TerminalMetric.from_pairs({("a", "b"): "x/y", ("a", "c"): 1, ("b", "c"): 1})


def test_from_pairs_rejects_a_pair_given_two_values():
    pairs = {("a", "b"): 1, ("b", "a"): 5, ("a", "c"): 1, ("b", "c"): 1}
    with pytest.raises(MetricError, match="conflicting values 1 and 5 for pair"):
        TerminalMetric.from_pairs(pairs)
    pairs[("b", "a")] = "1"   # an equal repeat, written another way
    assert TerminalMetric.from_pairs(pairs).d("a", "b") == 1
    with pytest.raises(MetricError, match=r"^unknown terminal in pair \(z, a\)$"):
        TerminalMetric.from_pairs({("a", "b"): 1, ("z", "a"): 1}, terminals="ab")
    with pytest.raises(MetricError, match=r"^missing distance for pair \(a, c\)$"):
        TerminalMetric.from_pairs({("a", "b"): 1, ("c", "b"): 1}, terminals="abc")
