import itertools

import pytest

from arclat import arcs_a, lattice as lat
from arclat.arcs_a import ArcA, DiagramA, make_arc
from arclat.permutations import CoxeterType, weak_order_lattice, word_w0_conjugate
from arclat.util import between, passed


def test_identity_has_empty_diagram():
    assert arcs_a.diagram_of((1, 2, 3, 4)).arcs == frozenset()


def test_reversal_gives_consecutive_arcs():
    d = arcs_a.diagram_of((4, 3, 2, 1))
    assert d.arcs == frozenset(make_arc(i, i + 1) for i in range(1, 4))


def test_worked_example_6437125():
    d = arcs_a.diagram_of((6, 4, 3, 7, 1, 2, 5))
    expected = {
        make_arc(4, 6, right=[5]),
        make_arc(3, 4),
        make_arc(1, 7, right=[2, 5]),
    }
    assert d.arcs == frozenset(expected)
    big = next(a for a in d.arcs if a.top == 7)
    assert big.left == frozenset({3, 4, 6})


def test_inverse_worked_example():
    word = (3, 8, 6, 7, 5, 2, 4, 1)
    assert arcs_a.word_of(arcs_a.diagram_of(word)) == word


def test_inverse_prefix_structure():
    """The lowest left block is emitted first, in decreasing order."""
    word = (3, 8, 6, 7, 5, 2, 4, 1)
    d = arcs_a.diagram_of(word)
    out = arcs_a.word_of(d)
    assert out[:1] == (3,)
    assert out[:3] == (3, 8, 6)
    assert out[:6] == (3, 8, 6, 7, 5, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_roundtrip_exhaustive(n):
    for word in itertools.permutations(range(1, n + 1)):
        assert arcs_a.word_of(arcs_a.diagram_of(word)) == word


def test_self_incompatible():
    a = make_arc(1, 3, right=[2])
    assert not arcs_a.compatible(a, a)


def test_compatible_pair_from_worked_example():
    a = make_arc(3, 4)
    b = make_arc(1, 7, right=[2, 5])
    assert arcs_a.compatible(a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compatibility_matches_cooccurrence_oracle(n):
    """Production scan vs the ground truth: the pair appears together in the
    diagram of some word."""
    arcs = arcs_a.all_arcs_n(n)
    together = set()
    for word in itertools.permutations(range(1, n + 1)):
        d = arcs_a.diagram_of(word)
        for a, b in itertools.combinations(sorted(d.arcs, key=ArcA.key), 2):
            together.add((a, b))
            together.add((b, a))
    for a, b in itertools.permutations(arcs, 2):
        assert arcs_a.compatible(a, b) == ((a, b) in together), (a, b)


def test_join_irreducible_words():
    assert arcs_a.join_irreducible_word(make_arc(1, 2), 2) == (2, 1)
    assert arcs_a.join_irreducible_word(make_arc(1, 3, right=[2]), 3) == (3, 1, 2)
    assert arcs_a.join_irreducible_word(make_arc(1, 3, right=[]), 3) == (2, 3, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_arc_to_word_roundtrip(n):
    for arc in arcs_a.all_arcs_n(n):
        word = arcs_a.join_irreducible_word(arc, n)
        assert arcs_a.diagram_of(word).arcs == frozenset([arc])
        assert arcs_a.arc_of_join_irreducible(word) == arc


def test_subarc_examples():
    a = make_arc(1, 7, right=[3, 4, 6])
    assert arcs_a.is_subarc(a, a)
    assert arcs_a.is_subarc(make_arc(2, 3), a)
    assert not arcs_a.is_subarc(make_arc(2, 4, right=[]), a)
    assert arcs_a.is_subarc(make_arc(2, 4, right=[3]), a)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_subarc_is_partial_order(n):
    arcs = arcs_a.all_arcs_n(n)
    for a, b in itertools.combinations(arcs, 2):
        assert not (arcs_a.is_subarc(a, b) and arcs_a.is_subarc(b, a))
    for a, b, c in itertools.product(arcs, repeat=3):
        if arcs_a.is_subarc(a, b) and arcs_a.is_subarc(b, c):
            assert arcs_a.is_subarc(a, c)


def test_forcing_matches_subarc_on_rank_three():
    W = weak_order_lattice(CoxeterType("A", 4))
    arcs = {j: arcs_a.arc_of_join_irreducible(W.labels[j].word) for j in W.jis}
    for j1, j2 in itertools.product(W.jis, W.jis):
        assert lat.forcing_oracle(W, j1, j2) == arcs_a.is_subarc(arcs[j1], arcs[j2])


def test_shard_descriptor_examples():
    d = arcs_a.shard_descriptor(make_arc(1, 2))
    assert d.equality == ("diff", 1, 2) and not d.leq and not d.geq
    d = arcs_a.shard_descriptor(make_arc(1, 3, right=[2]))
    assert d.leq == frozenset({2}) and not d.geq


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shard_descriptors_distinct(n):
    descs = [arcs_a.shard_descriptor(a) for a in arcs_a.all_arcs_n(n)]
    assert len(set(descs)) == len(descs)


def test_half_turn_involution():
    pts = frozenset([-2, -1, 1, 2])
    empty = DiagramA(pts, frozenset())
    assert arcs_a.half_turn(empty) == empty
    word = (2, -1, 1, -2)
    d = arcs_a.diagram_of(word)
    assert arcs_a.half_turn(arcs_a.half_turn(d)) == d


def test_half_turn_matches_conjugation_on_signed_points():
    values = [-2, -1, 1, 2]
    for word in itertools.permutations(values):
        lhs = arcs_a.diagram_of(word_w0_conjugate(word))
        rhs = arcs_a.half_turn(arcs_a.diagram_of(word))
        assert lhs == rhs


def test_enumerate_counts():
    assert len(arcs_a.all_arcs_n(2)) == 1
    # 1 + 1 arcs on adjacent pairs plus 2 side choices for the span: 4 total
    assert len(arcs_a.all_arcs_n(3)) == 4
    for n in (2, 3, 4, 5):
        W = weak_order_lattice(CoxeterType("A", n))
        assert len(arcs_a.all_arcs_n(n)) == len(W.jis)


def relation_by_sets(a, b):
    """Reference relation on side sets: each endpoint or passed point of one
    arc that the other passes casts a vote for a side."""
    votes = set()
    for v in (a.bottom, a.top):
        if v in b.left:
            votes.add("left")
        elif v in b.right:
            votes.add("right")
    for v in (b.bottom, b.top):
        if v in a.left:
            votes.add("right")
        elif v in a.right:
            votes.add("left")
    for v in a.left & b.right:
        votes.add("right")
    for v in a.right & b.left:
        votes.add("left")
    if len(votes) > 1:
        raise ValueError(f"arcs {a} and {b} cross")
    return votes.pop() if votes else None


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("points", [(-3, -2, -1, 1, 2, 3), (1, 2, 3, 4, 5, 6)])
def test_relation_matches_the_set_reference(points):
    """Every ordered pair of arcs, crossing pairs included: the same answer
    or the same ValueError, and compatible agrees with it."""
    arcs = arcs_a.all_arcs(points)
    crossing = 0
    for a, b in itertools.product(arcs, repeat=2):
        expected = outcome(relation_by_sets, a, b)
        assert outcome(arcs_a.relation, a, b) == expected, (a, b)
        shared_end = a.top == b.top or a.bottom == b.bottom
        assert arcs_a.compatible(a, b) == (not shared_end and not isinstance(expected, tuple)), (a, b)
        crossing += isinstance(expected, tuple)
    assert (len(arcs), crossing) == (57, 1368)


def descent_arcs_by_positions(word):
    """Reference descent arcs: each value between the ends of a descent lies
    left of its arc when placed before the descent, right when after."""
    pos = {v: i for i, v in enumerate(word)}
    out = []
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            q, p = word[i], word[i + 1]
            left = frozenset(v for v in between(p, q) if pos[v] < i)
            out.append((i, ArcA(p, q, left, frozenset(between(p, q)) - left)))
    return out


def test_descent_arcs_match_the_position_reference():
    words = [w for n in range(1, 7) for w in itertools.permutations(range(1, n + 1))]
    words += list(itertools.permutations((-3, -2, -1, 1, 2, 3)))
    for word in words:
        assert arcs_a.descent_arcs(word) == descent_arcs_by_positions(word), word


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_arc_of_join_irreducible_matches_descent_arcs(n):
    """The one-descent words give their one descent arc; every other word is
    refused with ValueError."""
    for word in itertools.permutations(range(1, n + 1)):
        arcs = arcs_a.descent_arcs(word)
        if len(arcs) == 1:
            assert arcs_a.arc_of_join_irreducible(word) == arcs[0][1]
        else:
            with pytest.raises(ValueError, match="exactly one descent"):
                arcs_a.arc_of_join_irreducible(word)


def test_passed_is_the_shared_interval_set():
    for a, b in itertools.product(range(-5, 6), repeat=2):
        assert passed(a, b) == frozenset(between(a, b)), (a, b)
        assert passed(a, b) is passed(a, b)


def test_incompatible_diagram_names_the_first_pair_in_key_order():
    """The pairs are checked in any order, but the message names the first
    incompatible pair in ArcA.key order; the first pair in the set's own
    order is compatible, and the first incompatible one in it is another."""
    arcs = frozenset([make_arc(1, 5), make_arc(1, 5, [2, 3, 4]), make_arc(2, 3), make_arc(2, 4, [3])])
    pairs = list(itertools.combinations(arcs, 2))
    assert arcs_a.compatible(*pairs[0])
    assert {make_arc(2, 3), make_arc(2, 4, [3])} == set(next(p for p in pairs if not arcs_a.compatible(*p)))
    with pytest.raises(ValueError) as err:
        DiagramA(frozenset(range(1, 6)), arcs)
    assert str(err.value) == "incompatible arcs ArcA(1,5;R={}) and ArcA(1,5;R={2,3,4})"
