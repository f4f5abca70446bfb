import math

import pytest

from cuntzlim import (
    Chain,
    cofinal_chain,
    divisibility_edges,
    embeddability_edges,
    embeddability_graph,
    join,
    leq,
    reversed_relabeled,
)
from cuntzlim.poset import POSET_MAX

from oracle import divisibility_pairs, embeddability_pairs

# what a poset element that is not a positive int is refused with
POSITIVE = "poset element must be (an int )?>= 1"


def test_leq_is_divisibility_with_top():
    assert leq(3, 12) and not leq(3, 10)
    assert leq(1, 7)


def test_leq_and_join_require_positive_integers():
    # 2.0 divides 4 as a float, and math.inf is no element: O_inf is not an
    # index of the inverse system but its limit; True is an int that is no
    # positive integer of the poset
    for n, m in ((2.0, 4), (5, math.inf), (math.inf, 5), (0, 3), (3, -6),
                 (True, 2), (2, True)):
        for op in (leq, join):
            with pytest.raises(ValueError, match=POSITIVE):
                op(n, m)


def test_join_is_lcm():
    assert join(4, 6) == 12
    assert join(1, 9) == 9
    assert join(7, 7) == 7


def test_poset_laws_on_a_grid():
    xs = range(1, 13)
    for a in xs:
        for b in xs:
            j = join(a, b)
            assert leq(a, j) and leq(b, j)
            # least upper bound
            for c in xs:
                if leq(a, c) and leq(b, c):
                    assert leq(j, c)
            assert (leq(a, b) and leq(b, a)) == (a == b)


def test_chain_requires_strict_divisibility():
    Chain((1, 2, 6, 12))
    with pytest.raises(ValueError):
        Chain((2, 3))
    with pytest.raises(ValueError):
        Chain((2, 2))


def test_chain_requires_positive_integers():
    # a lone element is checked too, and 1.5 divides 3 as a float
    for elems in ((0,), (-3,), (1.5, 3), (1, math.inf), (True, 2), (True,)):
        with pytest.raises(ValueError, match=POSITIVE):
            Chain(elems)


def test_cofinal_chain_requires_positive_integers():
    # lcm(0, 3) = 0: the enumeration's 0 is refused, not returned as
    # Chain((0,)); math.lcm would refuse 2.5 with a TypeError; elements past
    # the length are not read
    for enum in ([0, 3], [2, 2.5], [2, math.inf], [True, 2]):
        with pytest.raises(ValueError, match=POSITIVE):
            cofinal_chain(enum, 2)
    assert list(cofinal_chain([2, 3, 2.5], 2)) == [2, 6]


def test_cofinal_chain_reads_only_length_elements():
    # the enumeration was read to its end before the first `length` elements
    # were taken, so itertools.count(1) never returned
    read = []

    def counted():
        for x in range(10 ** 5):
            read.append(x)
            yield x + 1

    assert list(cofinal_chain(counted(), 2)) == [1, 2]
    assert len(read) <= 2


def test_cofinal_chain_dominates_enumeration():
    enum = list(range(1, 9))
    ch = cofinal_chain(enum, 8)
    for x in enum:
        assert any(leq(x, y) for y in ch)
    vals = list(ch)
    for a, b in zip(vals, vals[1:]):
        assert b % a == 0 and a < b


def test_cofinal_chain_refuses_length_below_one():
    for length in (0, -1):
        with pytest.raises(ValueError, match="length must be >= 1, got %d" % length):
            cofinal_chain([2, 3], length)
    # a float length sliced the enumeration with a TypeError
    for length in (2.0, True):
        with pytest.raises(ValueError, match="length must be an int >= 1"):
            cofinal_chain([2, 4], length)
    assert list(cofinal_chain([2, 3], 1)) == [2]


def test_factorial_chain_is_cofinal():
    facts = [math.factorial(k) for k in range(1, 9)]
    ch = Chain(tuple(facts))
    for x in range(1, 9):
        assert any(leq(x, y) for y in ch)


def test_embeddability_edges_match_hom_exists():
    edges = set(embeddability_edges(8))
    # O_m -> O_n iff (n-1) | (m-1), m != n
    expected = {
        (m, n)
        for m in range(2, 9)
        for n in range(2, 9)
        if m != n and (m - 1) % (n - 1) == 0
    }
    assert edges == expected


def test_reduced_graph_has_only_covering_arrows():
    reduced = set(embeddability_edges(8, reduce=True))
    assert reduced == {
        (3, 2), (4, 2), (6, 2), (8, 2),
        (5, 3), (7, 3), (7, 4),
    }


def test_reversal_relabel_gives_divisibility_graph():
    full = embeddability_edges(8)
    assert set(reversed_relabeled(full)) == set(divisibility_edges(7))
    reduced = embeddability_edges(8, reduce=True)
    assert set(reversed_relabeled(reduced)) == {
        (1, 2), (1, 3), (1, 5), (1, 7), (2, 4), (2, 6), (3, 6),
    }
    assert set(reversed_relabeled(reduced)) == set(divisibility_edges(7, reduce=True))


def test_edges_agree_with_the_pair_loops():
    # multiples and prime quotients against hom_exists on every pair and the
    # transitive reduction that compares every pair of edges
    for top in range(2, 61):
        for reduce in (False, True):
            assert embeddability_edges(top, reduce) == embeddability_pairs(top, reduce)
            assert divisibility_edges(top, reduce) == divisibility_pairs(top, reduce)
    assert divisibility_edges(0) == []


def test_edges_refuse_graphs_past_the_bound():
    assert len(embeddability_edges(POSET_MAX + 1, reduce=True)) > POSET_MAX
    with pytest.raises(ValueError, match="too large"):
        embeddability_edges(POSET_MAX + 2)
    with pytest.raises(ValueError, match="too large"):
        divisibility_edges(10 ** 12, reduce=True)


def test_edges_refuse_sizes_that_are_no_graph():
    # a size below the least graph, O_2 or the empty graph on {1..0}, and a
    # float or bool size are refused; range(5.5) raised a TypeError
    for call, size, message in ((divisibility_edges, -1, "max_n must be >= 0, got -1"),
                                (divisibility_edges, -3, "max_n must be >= 0, got -3"),
                                (divisibility_edges, 5.5, "max_n must be an int >= 0"),
                                (divisibility_edges, True, "max_n must be an int >= 0"),
                                (embeddability_edges, 1, "max_generators must be >= 2, got 1"),
                                (embeddability_edges, 8.0,
                                 "max_generators must be an int >= 2"),
                                (embeddability_edges, True,
                                 "max_generators must be an int >= 2")):
        with pytest.raises(ValueError, match=message):
            call(size)


def test_reduced_dot_output_for_eight_generators():
    assert embeddability_graph(8, reduce=True).to_dot("embeddability") == (
        'digraph embeddability {\n'
        + "".join('  "O%d";\n' % k for k in range(2, 9))
        + "".join('  "O%d" -> "O%d";\n' % e
                  for e in ((3, 2), (4, 2), (5, 3), (6, 2), (7, 3), (7, 4), (8, 2)))
        + "}\n")


def test_dot_output():
    text = embeddability_graph(4, reduce=True).to_dot("g")
    assert text.startswith("digraph g {") and '"O3" -> "O2";' in text
