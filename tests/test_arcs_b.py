import itertools
import math
import random

import pytest

from arclat import arcs_a, arcs_b, forcing, lattice as lat, serialize
from arclat.arcs_a import SHARED_ARCS
from arclat.arcs_b import (
    DiagramB,
    InvalidArc,
    LongArc,
    NotADiagram,
    NotJoinIrreducible,
    OrbifoldArc,
    OrdinaryArc,
    SymmetricArc,
    SymmetricPair,
    arc_key,
    fold_phi,
    unfold_phi_inv,
    validate_long_arc,
)
from arclat.permutations import (
    CoxeterType,
    SignedPermutation,
    all_signed_permutations,
    lower_covers,
    unfold,
    weak_order_lattice,
)
from arclat.util import MAX_POINTS, InvariantError, ScopeExceeded
from test_arcs_a import relation_by_sets


def test_fold_symmetric_arc():
    sym = SymmetricArc(1, frozenset())
    assert fold_phi(sym) == OrbifoldArc(1, frozenset())


def test_fold_nonoverlapping_pair():
    a = arcs_a.make_arc(1, 2)
    pair = SymmetricPair(frozenset([a, arcs_a.antipode(a)]))
    assert fold_phi(pair) == OrdinaryArc(1, 2, frozenset())


def test_fold_overlapping_pair_orientation():
    # the pair whose right copy runs from -1 up to 2
    a = arcs_a.ArcA(-1, 2, frozenset([1]), frozenset())
    pair = SymmetricPair(frozenset([a, arcs_a.antipode(a)]))
    assert fold_phi(pair) == LongArc(1, 2, frozenset(), frozenset())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fold_unfold_roundtrip(n):
    for arc in arcs_b.all_arcs(n):
        assert fold_phi(unfold_phi_inv(arc)) == arc


def test_long_arc_validity_at_rank_two():
    assert validate_long_arc(1, 2, (), ())
    assert validate_long_arc(2, 1, (), ())
    assert not validate_long_arc(1, 2, (), (1,))
    assert not validate_long_arc(2, 1, (1,), ())
    longs = [a for a in arcs_b.all_arcs(2) if isinstance(a, LongArc)]
    assert len(longs) == 2


def drawable_by_objects(left_end, right_end, left, right):
    """Reference drawability: unfold the long arc to its two type-A arcs and
    ask the set-based relation whether the first lies right of the second."""
    left, right = frozenset(left), frozenset(right)
    if left_end == right_end or left & right:
        return False
    if not left <= frozenset(range(1, left_end)) or not right <= frozenset(range(1, right_end)):
        return False
    a, b = arcs_b._unfold_long_raw(left_end, right_end, left, right)
    if a.top == b.top or a.bottom == b.bottom:
        return False
    try:
        return relation_by_sets(a, b) == "right"
    except ValueError:
        return False


def subsets(items):
    return [frozenset(c) for k in range(len(items) + 1) for c in itertools.combinations(items, k)]


def long_candidates(n):
    """Every pair of endpoints with every pair of side sets below them."""
    for left_end, right_end in itertools.permutations(range(1, n + 1), 2):
        for left in subsets(range(1, left_end)):
            for right in subsets(range(1, right_end)):
                yield left_end, right_end, left, right


def all_arcs_by_objects(n):
    """Reference enumeration: every ordinary and orbifold arc, and every long
    candidate with disjoint side sets that drawable_by_objects accepts."""
    out = [OrdinaryArc(a.bottom, a.top, a.right) for a in arcs_a.all_arcs_n(n)]
    out += [OrbifoldArc(top, right) for top in range(1, n + 1) for right in subsets(range(1, top))]
    out += [LongArc(*c) for c in long_candidates(n) if not c[2] & c[3] and drawable_by_objects(*c)]
    return sorted(out, key=arc_key)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_drawability_matches_the_unfolded_relation(n):
    drawable = 0
    for c in long_candidates(n):
        assert validate_long_arc(*c) == drawable_by_objects(*c), c
        drawable += validate_long_arc(*c)
    assert drawable == sum(isinstance(a, LongArc) for a in arcs_b.all_arcs(n))


def test_drawability_rejects_bad_input():
    for c in [(0, 2, (), ()), (2, 2, (), ()), (2, 3, (1,), (1,)), (2, 3, (2,), ()), (3, 2, (), (2,))]:
        assert not validate_long_arc(*c)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_arc_enumeration_matches_the_object_enumeration(n):
    assert forcing._all_arcs(n) == tuple(all_arcs_by_objects(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_keyed_arcs_index_every_unfolded_piece(n):
    """The key map equals the round trip through unfold_arcs, and each main
    key is main_piece's key."""
    def key(a):  # point v at bit v + n
        return a.bottom, a.top, sum(1 << (v + n) for v in a.right)

    keyed, arcs = arcs_b.keyed_arcs(n), arcs_b.all_arcs(n)
    assert keyed.index == {key(a): i for i, arc in enumerate(arcs) for a in arcs_b.unfold_arcs(arc)}
    assert keyed.main == tuple(key(arcs_b.main_piece(arc)) for arc in arcs)
    for arc, main in zip(arcs, keyed.main):
        assert arcs_b.antipode_key(n, main) == key(arcs_a.antipode(arcs_b.main_piece(arc)))


def test_mirror_matches_the_reversed_binary_string():
    """_mirror takes bit i to bit 2n - i: the reference reverses the mask
    written as 2n + 1 binary digits, over every mask at n = 1..7."""
    for n in range(1, 8):
        width = 2 * n + 1
        for mask in range(1 << width):
            assert arcs_b._mirror(n, mask) == int(f"{mask:0{width}b}"[::-1], 2), (n, mask)


def test_main_piece_of_a_long_arc_is_its_right_copy():
    """The main piece lies right of its antipode; for half of the long arcs
    at n = 5 it is not the unfolded piece with the lower bottom."""
    longs = [a for a in arcs_b.all_arcs(5) if isinstance(a, LongArc)]
    other = 0
    for arc in longs:
        main = arcs_b.main_piece(arc)
        assert main in arcs_b.unfold_arcs(arc)
        assert arcs_a.relation(main, arcs_a.antipode(main)) == "right"
        other += main != arcs_b.unfold_arcs(arc)[0]
    assert (len(longs), other) == (180, 90)


def test_invalid_long_arc_raises():
    with pytest.raises(InvalidArc):
        LongArc(1, 2, frozenset(), frozenset([1]))


def test_arc_counts():
    assert len(arcs_b.all_arcs(2)) == 6  # 1 ordinary + 3 orbifold + 2 long
    for n in (2, 3, 4):
        W = weak_order_lattice(CoxeterType("B", n))
        assert len(arcs_b.all_arcs(n)) == len(W.jis)


def test_diagram_of_identity_and_s0():
    assert arcs_b.diagram_of_signed(SignedPermutation((1, 2, 3))).arcs == frozenset()
    d = arcs_b.diagram_of_signed(SignedPermutation((-1, 2)))
    assert d.arcs == frozenset([OrbifoldArc(1, frozenset())])


def test_diagram_worked_example():
    pi = SignedPermutation((-4, 3, 5, 2, -1))
    d = arcs_b.diagram_of_signed(pi)
    assert d.arcs == frozenset(
        [
            OrdinaryArc(2, 5, frozenset()),
            OrbifoldArc(4, frozenset([2, 3])),
            LongArc(1, 2, frozenset(), frozenset()),
        ]
    )
    assert arcs_b.signed_of_diagram(d) == pi


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagram_roundtrip_exhaustive(n):
    for pi in all_signed_permutations(n):
        assert arcs_b.signed_of_diagram(arcs_b.diagram_of_signed(pi)) == pi


def signed_descent_arcs_by_unfolding(pi):
    """The descent arcs of pi by the unfold route: the type-A descent arcs of
    the long word, each folded back by the half turn."""
    word = unfold(pi)
    n = pi.n
    pos_arcs = dict(arcs_a.descent_arcs(word))
    out = []
    if pi.word[0] < 0:
        center = pos_arcs[n - 1]  # descent across the middle
        out.append(("center", fold_phi(SymmetricArc(center.top, center.right))))
    for k in range(n - 1):
        if pi.word[k] > pi.word[k + 1]:
            a = pos_arcs[n + k]
            if a.bottom > 0 or a.top < 0:
                pos = a if a.bottom > 0 else arcs_a.antipode(a)
                out.append((k, OrdinaryArc(pos.bottom, pos.top, pos.right)))
            else:
                out.append((k, arcs_b._fold_pair_from_right_arc(a)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_direct_construction_agrees_exhaustive(n):
    """The map on the short word gives the unfold route's arcs, keys and
    order on every signed permutation of rank n."""
    for pi in all_signed_permutations(n):
        assert arcs_b.signed_descent_arcs(pi) == signed_descent_arcs_by_unfolding(pi), pi


def test_join_irreducible_dictionary_examples():
    n = 3
    table = [
        (OrbifoldArc(1, frozenset()), (-1, 2, 3)),
        (OrbifoldArc(2, frozenset()), (-2, -1, 3)),
        (OrbifoldArc(2, frozenset([1])), (-2, 1, 3)),
        (LongArc(1, 2, frozenset(), frozenset()), (2, -1, 3)),
        (LongArc(2, 1, frozenset(), frozenset()), (1, -2, 3)),
        (LongArc(2, 3, frozenset(), frozenset([1])), (3, -2, 1)),
        (OrdinaryArc(1, 2, frozenset()), (2, 1, 3)),
    ]
    for arc, word in table:
        assert arcs_b.join_irreducible_word(arc, n) == word
        assert arcs_b.arc_of_join_irreducible(SignedPermutation(word)) == arc


def test_not_join_irreducible():
    with pytest.raises(NotJoinIrreducible):
        arcs_b.arc_of_join_irreducible(SignedPermutation((1, 2, 3)))
    with pytest.raises(NotJoinIrreducible):
        arcs_b.arc_of_join_irreducible(SignedPermutation((-2, -1, -3)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_arc_of_join_irreducible_matches_the_diagram(n):
    """A signed permutation with one lower cover gives the one arc of its
    diagram; any other is refused with NotJoinIrreducible."""
    for pi in all_signed_permutations(n):
        w = pi.word
        if sum(w[k] > w[k + 1] for k in range(n - 1)) + (w[0] < 0) == 1:
            assert frozenset([arcs_b.arc_of_join_irreducible(pi)]) == arcs_b.diagram_of_signed(pi).arcs, pi
        else:
            with pytest.raises(NotJoinIrreducible):
                arcs_b.arc_of_join_irreducible(pi)


def test_arc_of_join_irreducible_checks_its_one_descent(monkeypatch):
    """A shape test that passes a word with two descents is an invariant
    failure, not a refusal."""
    monkeypatch.setattr(arcs_b, "is_join_irreducible_signed", lambda pi: True)
    with pytest.raises(InvariantError, match="has 2 arcs"):
        arcs_b.arc_of_join_irreducible(SignedPermutation((-1, 3, 2)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_arc_ji_bijection(n):
    W = weak_order_lattice(CoxeterType("B", n))
    jis = {W.labels[j] for j in W.jis}
    arcs = arcs_b.all_arcs(n)
    image = {SignedPermutation(arcs_b.join_irreducible_word(a, n)) for a in arcs}
    assert image == jis
    for a in arcs:
        assert arcs_b.arc_of_join_irreducible(SignedPermutation(arcs_b.join_irreducible_word(a, n))) == a


def test_two_orbifold_arcs_incompatible():
    assert not arcs_b.compatible(OrbifoldArc(1, frozenset()), OrbifoldArc(2, frozenset()))
    assert not arcs_b.compatible(
        OrbifoldArc(2, frozenset([1])), OrbifoldArc(3, frozenset([1]))
    )


def test_compatible_pair_from_example():
    d = arcs_b.diagram_of_signed(SignedPermutation((-4, 3, 5, 2, -1)))
    for a, b in itertools.combinations(sorted(d.arcs, key=arc_key), 2):
        assert arcs_b.compatible(a, b)


@pytest.mark.parametrize("n", [2, 3])
def test_compatibility_matches_cooccurrence(n):
    arcs = arcs_b.all_arcs(n)
    together = set()
    for pi in all_signed_permutations(n):
        d = arcs_b.diagram_of_signed(pi)
        for a, b in itertools.combinations(sorted(d.arcs, key=arc_key), 2):
            together.add(frozenset((a, b)))
    for a, b in itertools.combinations(arcs, 2):
        assert arcs_b.compatible(a, b) == (frozenset((a, b)) in together)


@pytest.mark.parametrize("n,count", [(2, 8), (3, 48)])
def test_diagram_counts(n, count):
    assert len(arcs_b.all_diagrams(n)) == count


def test_diagram_count_matches_group_order_rank_four():
    assert len(arcs_b.all_diagrams(4)) == 2**4 * math.factorial(4)


def test_arcs_count_cover_reflections():
    for n in (2, 3):
        for pi in all_signed_permutations(n):
            assert len(arcs_b.diagram_of_signed(pi).arcs) == len(list(lower_covers(pi.word)))


def test_incompatible_diagram_rejected():
    with pytest.raises((NotADiagram, ValueError)):
        DiagramB(2, frozenset([OrbifoldArc(1, frozenset()), OrbifoldArc(2, frozenset())]))


def test_shard_descriptor_examples():
    d = arcs_b.shard_descriptor(OrbifoldArc(1, frozenset()))
    assert d.equality == ("zero", 1) and not d.leq and not d.geq
    d = arcs_b.shard_descriptor(OrbifoldArc(2, frozenset()))
    assert d.equality == ("zero", 2) and d.geq == frozenset([1])
    d = arcs_b.shard_descriptor(LongArc(1, 2, frozenset(), frozenset()))
    assert d.equality == ("sum", 1, 2)
    assert d.geq == frozenset([1])  # x at the right end dominates x_1


def test_ordinary_arcs_share_the_type_a_descriptor():
    """An ordinary quotient arc is a type-A arc, with the same shard."""
    for arc in arcs_a.all_arcs_n(5):
        ordinary = OrdinaryArc(arc.bottom, arc.top, arc.right)
        assert arcs_a.shard_descriptor(arc) == arcs_b.shard_descriptor(ordinary), arc


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shard_descriptors_distinct(n):
    descs = [arcs_b.shard_descriptor(a) for a in arcs_b.all_arcs(n)]
    assert len(set(descs)) == len(descs)


def test_diagram_enumeration_scope():
    with pytest.raises(lat.ScopeExceeded):
        arcs_b.all_diagrams(6)


@pytest.mark.parametrize("n", [2, 3])
def test_descriptor_cones_pairwise_incomparable(n):
    """No inequality description contains another one on the same carrier."""
    from arclat.feasible import LinearSystem

    def contains(d1, d2) -> bool:
        eq1, ineqs1 = d1.linear_forms(n)
        eq2, ineqs2 = d2.linear_forms(n)
        if eq1 != eq2:
            return False
        for v in ineqs1:
            sys = LinearSystem(n)
            sys.eq(eq2)
            for w in ineqs2:
                sys.ge(w)
            sys.gt([-c for c in v])
            if sys.feasible():
                return False
        return True

    descs = [arcs_b.shard_descriptor(a) for a in arcs_b.all_arcs(n)]
    for d1, d2 in itertools.permutations(descs, 2):
        assert not contains(d1, d2)


def test_incompatible_diagram_b_names_the_first_pair_in_key_order():
    """As for DiagramA: the message names the first incompatible pair in
    arc_key order, not the first one in the set's own order."""
    arcs = frozenset([
        OrdinaryArc(1, 2, frozenset()),
        LongArc(1, 3, frozenset(), frozenset()),
        LongArc(2, 3, frozenset([1]), frozenset()),
        LongArc(3, 1, frozenset([2]), frozenset()),
    ])
    pairs = list(itertools.combinations(arcs, 2))
    assert arcs_b.compatible(*pairs[0])
    assert LongArc(3, 1, frozenset([2]), frozenset()) in next(p for p in pairs if not arcs_b.compatible(*p))
    with pytest.raises(NotADiagram) as err:
        DiagramB(3, arcs)
    assert str(err.value) == "incompatible arcs Ord(1,2;R=[]) and Long(L2,R3;L=[1],R=[])"


def check_one_noncrossing_check(n, arcs):
    """DiagramB(n, arcs) is built exactly when every pair of its arcs is
    compatible, keeps the DiagramA of their unfolded pieces, and else names
    the first incompatible pair in arc_key order."""
    pairs = itertools.combinations(sorted(arcs, key=arc_key), 2)
    bad = next((pair for pair in pairs if not arcs_b.compatible(*pair)), None)
    if bad is None:
        d = DiagramB(n, frozenset(arcs))
        pieces = frozenset(a for arc in arcs for a in arcs_b.unfold_arcs(arc))
        assert d.unfolded == arcs_a.DiagramA(frozenset(v for v in range(-n, n + 1) if v), pieces)
        return
    with pytest.raises(NotADiagram) as err:
        DiagramB(n, frozenset(arcs))
    assert str(err.value) == f"incompatible arcs {bad[0]} and {bad[1]}"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_noncrossing_check_on_every_small_subset(n):
    arcs = arcs_b.all_arcs(n)
    for k in (2, 3):
        for chosen in itertools.combinations(arcs, k):
            check_one_noncrossing_check(n, chosen)


def test_one_noncrossing_check_on_every_pair_at_rank_four():
    for chosen in itertools.combinations(arcs_b.all_arcs(4), 2):
        check_one_noncrossing_check(4, chosen)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_one_noncrossing_check_on_random_arc_sets(n):
    """Seeded arc sets: a random signed word's diagram, a greedy clique of
    the compatibility graph, each with one random arc added, and random
    arcs of any kind."""
    rng = random.Random(n)
    arcs = arcs_b.all_arcs(n)
    for _ in range(100):
        word = [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), n)]
        own = arcs_b.diagram_of_signed(SignedPermutation(tuple(word))).arcs
        clique, size = [], rng.randint(1, 2 * n)
        for arc in rng.sample(arcs, len(arcs)):
            if len(clique) < size and all(arcs_b.compatible(arc, other) for other in clique):
                clique.append(arc)
        for chosen in (own, clique):
            check_one_noncrossing_check(n, chosen)
            check_one_noncrossing_check(n, set(chosen) | {rng.choice(arcs)})
        check_one_noncrossing_check(n, rng.sample(arcs, rng.randint(2, 5)))


def test_a_diagram_past_max_points_is_refused_when_built():
    with pytest.raises(ScopeExceeded):
        DiagramB(MAX_POINTS + 1, frozenset())
    assert DiagramB(MAX_POINTS, frozenset()).unfolded.points == frozenset(range(-MAX_POINTS, MAX_POINTS + 1)) - {0}


def test_unfolded_crossing_without_a_crossing_pair_is_an_invariant_error(monkeypatch):
    """Were the unfolded pieces to cross while no two quotient arcs are
    incompatible, that is a bug, reported as such."""
    monkeypatch.setattr(arcs_b, "compatible", lambda a, b: True)
    with pytest.raises(InvariantError):
        DiagramB(2, frozenset([OrbifoldArc(1, frozenset()), OrbifoldArc(2, frozenset())]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_descent_keys_follow_lower_covers_and_the_unfolding(n):
    """Every signed word's descent keys sit at the positions of its lower
    covers, the centre first as -1, and each names the arc that the unfold
    route gives."""
    for pi in all_signed_permutations(n):
        w = pi.word
        keys = arcs_b.descent_keys(w, n)
        positions = [-1 if u[0] == -w[0] else next(i for i in range(n) if u[i] != w[i]) for _t, u in lower_covers(w)]
        assert [k for k, _key in keys] == positions, pi
        expect = [arc for _k, arc in signed_descent_arcs_by_unfolding(pi)]
        assert [arcs_b._piece_arc(n, key) for _k, key in keys] == expect, pi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_descent_keys_without_centre_are_the_type_a_descents(n):
    """On the long words, centre=False gives the keys of arcs_a.descent_arcs."""
    for pi in all_signed_permutations(n):
        word = unfold(pi)
        expect = [(i, (a.bottom, a.top, sum(1 << (v + n) for v in a.right))) for i, a in arcs_a.descent_arcs(word)]
        assert arcs_b.descent_keys(word, n, centre=False) == expect, pi


@pytest.fixture
def fresh_arcs():
    """Empty arc caches before and after the test, so that every arc it
    reads was built while it ran and none of them outlives it in
    unfold_arcs once evicted from the shared ones."""
    caches = (arcs_a.shared_arc, arcs_b.arc_of_key, arcs_b.unfold_arcs)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quotient_arcs_are_one_object_per_key(n, fresh_arcs):
    """The table, the enumeration, the descents and the join-irreducibles
    hand out the same object for the same arc, and it equals and hashes
    like the arc built afresh from its JSON."""
    arcs = arcs_b.all_arcs(n)
    table = forcing.subarc_table(n)
    assert all(table.arc(i) is arc for i, arc in enumerate(arcs))
    for arc in arcs:
        fresh = serialize.arc_b_from_json(serialize.arc_b_to_json(arc))
        assert fresh is not arc and fresh == arc and hash(fresh) == hash(arc)
    shared = {arcs_b.main_key(n, arc): arc for arc in arcs}
    for pi in all_signed_permutations(n):
        descents = arcs_b.signed_descent_arcs(pi)
        assert all(shared[arcs_b.main_key(n, arc)] is arc for _k, arc in descents)
        if len(descents) == 1:
            assert arcs_b.arc_of_join_irreducible(pi) is descents[0][1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_plain_arcs_are_one_object_per_key(n, fresh_arcs):
    """The same for type-A arcs on +/-1..+/-n: the symmetric table, in the
    order of arcs_a.all_arcs, antipodes, the unfolded pieces of the quotient
    arcs, and the descents and join-irreducibles of words on 1..n."""
    points = [v for v in range(-n, n + 1) if v]
    table = forcing.symmetric_subarc_table(n).arcs
    assert table == tuple(arcs_a.all_arcs(points))
    shared = {arc.key(): arc for arc in table}
    for arc in table:
        fresh = arcs_a.make_arc(arc.bottom, arc.top, arc.right)
        assert fresh is not arc and fresh == arc and hash(fresh) == hash(arc)
        assert shared[arcs_a.antipode(arc).key()] is arcs_a.antipode(arc)
    for arc in arcs_b.all_arcs(n):
        assert all(shared[piece.key()] is piece for piece in arcs_b.unfold_arcs(arc))
    for word in itertools.permutations(range(1, n + 1)):
        descents = arcs_a.descent_arcs(word)
        assert all(shared[arc.key()] is arc for _i, arc in descents)
        if len(descents) == 1:
            assert arcs_a.arc_of_join_irreducible(word) is descents[0][1]
        assert arcs_a.diagram_of(word).arcs == {arc for _i, arc in descents}


def test_an_invalid_arc_raises_on_every_call(fresh_arcs):
    """No exception is cached: each call builds and checks the arc again."""
    for _ in range(3):
        with pytest.raises(ValueError, match="side sets"):
            arcs_a.shared_arc(1, 3, frozenset([5]))
        with pytest.raises(ValueError, match="bad endpoints"):
            arcs_a.shared_arc(3, 3, frozenset())
        with pytest.raises(InvalidArc, match="strictly between"):
            arcs_b.arc_of_key(3, (1, 2, 1 << 3 + 3))  # Ord(1,2;R=[3])
        with pytest.raises(InvalidArc, match="cross when drawn"):
            arcs_b.arc_of_key(2, (-1, 2, 1 << 2 + 1))  # Long(L1,R2;L=[],R=[1])
        with pytest.raises(ValueError, match="exactly one descent"):
            arcs_a.arc_of_join_irreducible((3, 2, 1))
        with pytest.raises(NotJoinIrreducible):
            arcs_b.arc_of_join_irreducible(SignedPermutation((-1, -2)))
    assert [cache.cache_info().currsize for cache in (arcs_a.shared_arc, arcs_b.arc_of_key)] == [0, 0]


def test_arc_caches_keep_at_most_their_bound(fresh_arcs):
    """Past SHARED_ARCS distinct arcs the least recently used is dropped."""
    for p in range(1, SHARED_ARCS + 11):
        arcs_a.shared_arc(p, p + 2, frozenset())
    for n in range(2, SHARED_ARCS + 12):
        arcs_b.arc_of_key(n, (1, 2, 0))
    for cache in (arcs_a.shared_arc, arcs_b.arc_of_key):
        info = cache.cache_info()
        assert info.misses == SHARED_ARCS + 10 and info.currsize == info.maxsize == SHARED_ARCS
    # the arcs_b caches keyed by arc hold the same bound, so that unfolded
    # pieces evicted from shared_arc do not outlive it there
    for cache in (arcs_b.unfold_arcs, arcs_b._drawable):
        assert cache.cache_info().maxsize == SHARED_ARCS
