import functools
import itertools
import random

import pytest

from arclat import arcs_a, arcs_b, catalog, forcing, lattice as lat
from arclat.arcs_b import LongArc, OrbifoldArc, OrdinaryArc
from arclat.forcing import (
    ArcCongruence,
    NotInConA,
    congruence_join,
    congruence_meet,
    has_arrow,
    is_in_con_a,
    is_loose_subarc,
    is_subarc,
    is_subarc_symmetric,
    lift_to_symmetric,
    meet_irreducible_congruence,
)
from arclat.permutations import (
    CoxeterType,
    all_signed_permutations,
    unfold,
    weak_order_lattice,
)


def test_subarc_reflexive():
    for arc in arcs_b.all_arcs(3):
        assert is_subarc(arc, arc)


def test_orbifold_chain():
    small = OrbifoldArc(1, frozenset())
    assert is_subarc(small, OrbifoldArc(2, frozenset()))
    assert is_subarc(small, OrbifoldArc(2, frozenset([1])))


def test_long_orientations_incomparable():
    a = LongArc(1, 2, frozenset(), frozenset())
    b = LongArc(2, 1, frozenset(), frozenset())
    assert not is_subarc(a, b) and not is_subarc(b, a)


def test_deep_long_nesting():
    # cutting both pieces of a wide long arc reaches the bare small one
    sup = LongArc(3, 4, frozenset([1, 2]), frozenset())
    assert is_subarc(LongArc(1, 3, frozenset(), frozenset()), sup)
    assert is_subarc(LongArc(1, 2, frozenset(), frozenset()), sup)


@pytest.mark.parametrize("n", [2, 3])
def test_subarc_partial_order(n):
    arcs = arcs_b.all_arcs(n)
    for a, b in itertools.combinations(arcs, 2):
        assert not (is_subarc(a, b) and is_subarc(b, a))
    for a, b, c in itertools.product(arcs, repeat=3):
        if is_subarc(a, b) and is_subarc(b, c):
            assert is_subarc(a, c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_model_subarcs_agree(n):
    arcs = arcs_b.all_arcs(n)
    syms = {a: arcs_b.unfold_phi_inv(a) for a in arcs}
    for a, b in itertools.product(arcs, repeat=2):
        assert is_subarc_symmetric(syms[a], syms[b]) == is_subarc(a, b)


@pytest.mark.parametrize("n", [2, 3])
def test_symmetric_subarc_transitive(n):
    arcs = [arcs_b.unfold_phi_inv(a) for a in arcs_b.all_arcs(n)]
    rel = {
        (i, j)
        for i, a in enumerate(arcs)
        for j, b in enumerate(arcs)
        if is_subarc_symmetric(a, b)
    }
    for i, j in rel:
        for k in range(len(arcs)):
            if (j, k) in rel:
                assert (i, k) in rel


def test_loose_subarc_extends_subarc():
    for n in (2, 3):
        for a, b in itertools.product(arcs_b.all_arcs(n), repeat=2):
            if is_subarc(a, b):
                assert is_loose_subarc(a, b)


def test_loose_subarc_examples():
    # a bare long arc sits loosely under the orbifold arc sharing its sides
    long12 = LongArc(1, 2, frozenset(), frozenset())
    orb_right_of_1 = OrbifoldArc(2, frozenset())  # passes right of 1
    assert is_loose_subarc(long12, orb_right_of_1)
    assert not is_subarc(long12, orb_right_of_1)
    # swapped-piece clause between opposite orientations
    long21 = LongArc(2, 1, frozenset(), frozenset())
    assert is_loose_subarc(long21, OrbifoldArc(2, frozenset([1])))
    # a long arc with a point between its pieces never gains loose status
    deep = LongArc(2, 3, frozenset(), frozenset())
    assert deep.between_pieces
    assert not is_loose_subarc(deep, OrbifoldArc(3, frozenset([1, 2])))


def test_arrow_examples():
    assert has_arrow(OrbifoldArc(1, frozenset()), OrbifoldArc(2, frozenset()))
    assert has_arrow(OrbifoldArc(1, frozenset()), OrbifoldArc(2, frozenset([1])))
    assert has_arrow(OrdinaryArc(1, 2, frozenset()), OrbifoldArc(2, frozenset([1])))
    for arc in arcs_b.all_arcs(2):
        assert not has_arrow(arc, arc)


def test_arrow_blocked_without_partner():
    # subarc holds, but the forced partner crosses the source
    a1 = OrdinaryArc(1, 2, frozenset())
    a2 = LongArc(2, 3, frozenset(), frozenset([1]))
    assert is_subarc(a1, a2)
    assert not has_arrow(a1, a2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_arrow_closure_is_subarc_order(n):
    arcs = arcs_b.all_arcs(n)
    closure = forcing.arrow_closure(arcs)
    for a in arcs:
        for b in arcs:
            assert (b in closure[a]) == is_subarc(a, b)


def test_forces_alias():
    a = OrbifoldArc(1, frozenset())
    b = OrbifoldArc(3, frozenset([1, 2]))
    assert forcing.forces(a, b) == is_subarc(a, b)


def test_congruence_from_generators_examples():
    assert ArcCongruence.from_generators(3, []).contracted == frozenset()
    s0 = OrbifoldArc(1, frozenset())
    theta = ArcCongruence.from_generators(3, [s0])
    assert theta.contracted == frozenset(
        a for a in arcs_b.all_arcs(3) if not isinstance(a, OrdinaryArc)
    )
    simion = ArcCongruence.from_generators(
        3,
        [LongArc(1, 2, frozenset(), frozenset()), LongArc(2, 1, frozenset(), frozenset())],
    )
    assert simion.contracted == frozenset(
        a for a in arcs_b.all_arcs(3) if isinstance(a, LongArc)
    )


def test_up_closure_validation():
    s0 = OrbifoldArc(1, frozenset())
    with pytest.raises(ValueError):
        ArcCongruence(3, frozenset([s0]))


def test_contracted_arcs_must_fit():
    with pytest.raises(ValueError, match="does not fit"):
        ArcCongruence(2, frozenset([OrbifoldArc(5, frozenset())]))


@pytest.mark.parametrize(
    "work",
    [
        lambda: forcing.quotient_elements(ArcCongruence.identity(7)),
        lambda: forcing.element_partition(ArcCongruence.identity(7)),
        lambda: ArcCongruence.full(8),
        lambda: ArcCongruence.from_generators(9, [OrbifoldArc(1, frozenset())]),
        lambda: forcing.arrow_edges(8),
        lambda: catalog.cambrian_congruence(8, catalog.Designation(tuple("R" * 7))),
        lambda: forcing.all_congruences(4),
        lambda: list(lat.all_congruences(lat.build_lattice([(i, i + 1) for i in range(27)]))),
    ],
)
def test_scope_guards(work):
    with pytest.raises(lat.ScopeExceeded):
        work()


def test_quotient_elements_sizes():
    import math

    theta = ArcCongruence.identity(3)
    assert len(forcing.quotient_elements(theta)) == 48
    s0_parab = catalog.parabolic_congruence(3, [0])
    assert len(forcing.quotient_elements(s0_parab)) == math.factorial(3)
    s1_parab = catalog.parabolic_congruence(3, [1])
    assert len(forcing.quotient_elements(s1_parab)) == 2 * 1 * math.factorial(2)


def test_quotient_lattice_examples():
    theta = catalog.parabolic_congruence(3, [0])
    q = forcing.quotient_lattice(theta)
    hexagon = weak_order_lattice(CoxeterType("A", 3))
    assert lat.is_isomorphic(q, hexagon)
    camb = catalog.cambrian_congruence(2, catalog.Designation(("R",)))
    assert forcing.quotient_lattice(camb).n == 6
    ident = ArcCongruence.identity(2)
    assert lat.is_isomorphic(
        forcing.quotient_lattice(ident), weak_order_lattice(CoxeterType("B", 2))
    )


def test_quotient_matches_order_engine():
    W = weak_order_lattice(CoxeterType("B", 3))
    theta = catalog.parabolic_congruence(3, [0])
    classes = [[W.index[pi] for pi in c] for c in forcing.element_partition(theta)]
    cong = lat.Congruence.from_classes(W, classes)
    q1 = lat.quotient(W, cong)
    q2 = forcing.quotient_lattice(theta)
    assert sorted(map(repr, q1.labels)) == sorted(map(repr, q2.labels))
    assert lat.is_isomorphic(q1, q2)


def test_congruence_meet_join():
    t1 = catalog.parabolic_congruence(3, [0])
    ident = ArcCongruence.identity(3)
    assert congruence_meet(t1, ident).contracted == frozenset()
    assert congruence_join(t1, t1).contracted == t1.contracted


def test_meet_irreducible_congruence():
    arc = OrbifoldArc(3, frozenset([1, 2]))
    theta = meet_irreducible_congruence(3, arc)
    assert theta.uncontracted() == frozenset(
        b for b in arcs_b.all_arcs(3) if is_subarc(b, arc)
    )
    assert arc not in theta.contracted


@functools.lru_cache(maxsize=None)
def all_arc_congruences(n):
    """forcing.all_congruences(n), enumerated once for the tests that read it."""
    return tuple(forcing.all_congruences(n))


@pytest.mark.parametrize("n", [2, 3])
def test_partitions_are_congruences(n):
    W = weak_order_lattice(CoxeterType("B", n))
    thetas = all_arc_congruences(n)
    if n == 3:
        thetas = thetas[:: max(1, len(thetas) // 40)]
    for theta in thetas:
        classes = [[W.index[pi] for pi in c] for c in forcing.element_partition(theta)]
        assert lat.is_congruence(W, classes)


def lattice_contracted_arcs(n):
    """The contracted arc sets of every congruence of the weak order on B_n,
    enumerated on the lattice side and mapped through the arc bijection."""
    W = weak_order_lattice(CoxeterType("B", n))
    jis = lat.join_irreducibles(W)
    arc_of = {j: arcs_b.arc_of_join_irreducible(W.labels[j.element]) for j in jis}
    return [
        frozenset(arc_of[j] for j in jis if cong.same(j.element, j.lower))
        for cong in lat.all_congruences(W)
    ]


@pytest.mark.parametrize("n,count", [(2, 19), (3, 8368)])
def test_congruences_are_the_up_closed_arc_sets(n, count):
    from_lattice = lattice_contracted_arcs(n)
    from_arcs = {theta.contracted for theta in all_arc_congruences(n)}
    assert len(from_lattice) == len(set(from_lattice)) == count
    assert set(from_lattice) == from_arcs


def test_every_lattice_congruence_is_an_arc_congruence_at_rank_two():
    W = weak_order_lattice(CoxeterType("B", 2))
    from_arcs = set()
    for theta in forcing.all_congruences(2):
        classes = frozenset(
            frozenset(W.index[pi] for pi in c) for c in forcing.element_partition(theta)
        )
        from_arcs.add(classes)
    from_lattice = {
        frozenset(frozenset(c) for c in cong.classes())
        for cong in lat.all_congruences(W)
    }
    assert from_arcs == from_lattice


def test_principal_below_every_contracting_congruence():
    W = weak_order_lattice(CoxeterType("B", 2))
    ji_of = {
        W.labels[j.element]: j for j in lat.join_irreducibles(W)
    }
    for theta in forcing.all_congruences(2):
        part = {(x, y) for c in forcing.element_partition(theta) for x in c for y in c}
        for arc in theta.contracted:
            j = ji_of[arcs_b.join_irreducible_signed(arc, 2)]
            principal = lat.principal_congruence(W, j)
            for members in principal.classes():
                for x, y in itertools.combinations(members, 2):
                    assert (W.labels[x], W.labels[y]) in part


def test_con_a_verdicts():
    assert not is_in_con_a(catalog.hom_congruence(3, "simion"))
    assert is_in_con_a(catalog.hom_congruence(3, "nonhom"))
    assert not is_in_con_a(catalog.hom_congruence(3, "delta"))
    for sides in itertools.product("RL", repeat=2):
        assert is_in_con_a(catalog.cambrian_congruence(3, catalog.Designation(tuple(sides))))


def _loose_closed(theta):
    """The definition of membership: every loose subarc of an uncontracted
    arc is uncontracted."""
    arcs = arcs_b.all_arcs(theta.n)
    unc = [a for a in arcs if a not in theta.contracted]
    return all(sub in unc for sup in unc for sub in arcs if is_loose_subarc(sub, sup))


def test_con_a_membership_is_the_loose_closure():
    thetas = {t.contracted: t for t in forcing.all_congruences(2)}
    arcs = arcs_b.all_arcs(3)
    for k in (1, 2):
        for gens in itertools.combinations(arcs, k):
            t = ArcCongruence.from_generators(3, gens)
            thetas[t.contracted] = t
    verdicts = set()
    for theta in thetas.values():
        verdicts.add(_loose_closed(theta))
        assert is_in_con_a(theta) == _loose_closed(theta), sorted(theta.contracted, key=arcs_b.arc_key)
    assert len(thetas) > 100 and verdicts == {True, False}


def _symmetric_arcs(n):
    return arcs_a.all_arcs([v for v in range(-n, n + 1) if v != 0])


def test_symmetric_congruence_validation():
    centre = next(a for a in _symmetric_arcs(2) if (a.bottom, a.top) == (-1, 1))
    with pytest.raises(ValueError, match="not closed above"):
        forcing.ArcCongruenceA(2, frozenset([centre]))
    wide = next(a for a in _symmetric_arcs(3) if (a.bottom, a.top) == (-3, 3))
    with pytest.raises(ValueError, match="does not fit"):
        forcing.ArcCongruenceA(2, frozenset([wide]))


@pytest.mark.parametrize("n", [2, 3])
def test_symmetric_generators_contract_their_superarcs(n):
    arcs = _symmetric_arcs(n)
    for g in arcs:
        theta = forcing.ArcCongruenceA.from_generators(n, [g])
        assert theta.contracted == frozenset(b for b in arcs if arcs_a.is_subarc(g, b))


def test_lift_requires_membership():
    with pytest.raises(NotInConA):
        lift_to_symmetric(catalog.hom_congruence(3, "simion"))


def test_lift_restricts_exactly_at_rank_two():
    elements = list(all_signed_permutations(2))
    for theta in forcing.all_congruences(2):
        if not is_in_con_a(theta):
            continue
        lifted = lift_to_symmetric(theta)
        assert lifted.is_symmetric()
        pb = {pi: forcing.project(pi, theta) for pi in elements}
        pa = {pi: forcing.project_word(unfold(pi), lifted) for pi in elements}
        for x, y in itertools.combinations(elements, 2):
            assert (pb[x] == pb[y]) == (pa[x] == pa[y])


def test_principal_contracted_arcs_are_superarc_closures_rank_three():
    """Element-level principal congruences contract exactly the superarcs."""
    W = weak_order_lattice(CoxeterType("B", 3))
    ji_of = {W.labels[j.element]: j for j in lat.join_irreducibles(W)}
    arcs = arcs_b.all_arcs(3)
    for arc in arcs:
        j = ji_of[arcs_b.join_irreducible_signed(arc, 3)]
        theta = lat.principal_congruence(W, j)
        contracted = {
            arcs_b.arc_of_join_irreducible(W.labels[x.element])
            for x in lat.contracted_jis(W, theta)
        }
        assert contracted == {b for b in arcs if is_subarc(arc, b)}
        # below every arc congruence contracting the arc
        up = ArcCongruence.from_generators(3, [arc])
        assert contracted <= up.contracted


def test_quotient_join_irreducibles_are_uncontracted():
    W = weak_order_lattice(CoxeterType("B", 2))
    for theta in forcing.all_congruences(2):
        classes = [[W.index[pi] for pi in c] for c in forcing.element_partition(theta)]
        cong = lat.Congruence.from_classes(W, classes)
        q = lat.quotient(W, cong)
        expect = {
            W.labels[j.element]
            for j in lat.join_irreducibles(W)
            if not cong.same(j.element, j.lower)
        }
        assert {q.labels[j.element] for j in lat.join_irreducibles(q)} == expect


def test_arrow_edges_validate():
    edges = forcing.arrow_edges(2)
    assert all(is_subarc(e.source, e.target) for e in edges)
    with pytest.raises(ValueError):
        forcing.ArrowEdge(
            OrbifoldArc(2, frozenset()), OrbifoldArc(1, frozenset())
        )


@functools.lru_cache(maxsize=None)
def descent_arcs_by_word(n):
    """Each signed word of rank n with its quotient descent arcs, computed
    once, in the order of all_signed_permutations."""
    return {pi.word: arcs_b.signed_descent_arcs(pi) for pi in all_signed_permutations(n)}


def quotient_words_by_arcs(theta):
    """Reference filter: the words none of whose descent arcs is contracted."""
    return [
        w for w, arcs in descent_arcs_by_word(theta.n).items()
        if all(arc not in theta.contracted for _k, arc in arcs)
    ]


def class_words_by_arcs(theta):
    """Reference classes: step down by the first contracted descent arc until
    none is left; "center" flips the first sign, a position k swaps k, k + 1.
    Each word's bottom is kept, so later walks stop where earlier ones went."""
    arcs_of = descent_arcs_by_word(theta.n)
    bottom = {}

    def project(w):
        path = []
        while w not in bottom:
            step = next((k for k, arc in arcs_of[w] if arc in theta.contracted), None)
            if step is None:
                bottom[w] = w
                break
            path.append(w)
            w = list(w)
            if step == "center":
                w[0] = -w[0]
            else:
                w[step], w[step + 1] = w[step + 1], w[step]
            w = tuple(w)
        for u in path:
            bottom[u] = bottom[w]
        return bottom[w]

    fibers = {}
    for w in arcs_of:
        fibers.setdefault(project(w), []).append(w)
    return list(fibers.values())


def assert_quotient_matches_references(theta):
    elements = [pi.word for pi in forcing.quotient_elements(theta)]
    classes = [[pi.word for pi in c] for c in forcing.element_partition(theta)]
    expected = (quotient_words_by_arcs(theta), class_words_by_arcs(theta))
    assert (elements, classes) == expected, sorted(theta.contracted, key=arcs_b.arc_key)


@pytest.mark.parametrize("n,stride", [(2, 1), (3, 8)])
def test_quotients_match_descent_arc_references(n, stride):
    """Every stride-th congruence in enumeration order (1,046 at n = 3): all
    8,368 would add about 8 s to the suite."""
    for theta in all_arc_congruences(n)[::stride]:
        assert_quotient_matches_references(theta)


def test_named_quotients_match_descent_arc_references():
    n = 4
    thetas = [
        catalog.cambrian_congruence(n, catalog.Designation(s))
        for s in itertools.product("RL", repeat=n - 1)
    ]
    thetas += [
        catalog.parabolic_congruence(n, gens)
        for k in range(n + 1)
        for gens in itertools.combinations(range(n), k)
    ]
    for theta in thetas:
        assert_quotient_matches_references(theta)


def closed_above_by_rows(arcs, contracted):
    """Reference check: no contracted arc is a subarc of an uncontracted one."""
    return not any(is_subarc(c, u) for c in contracted for u in arcs if u not in contracted)


def test_validation_matches_the_row_check_on_both_sides():
    arcs = arcs_b.all_arcs(3)
    rng = random.Random(11)
    seen = set()
    for _ in range(800):
        if rng.random() < 0.5:
            contracted = set(rng.sample(arcs, rng.randint(0, len(arcs))))
        else:
            gens = rng.sample(arcs, rng.randint(1, 3))
            contracted = {u for u in arcs if any(is_subarc(g, u) for g in gens)}
            if rng.random() < 0.5:
                contracted ^= {rng.choice(arcs)}
        contracted = frozenset(contracted)
        closed = closed_above_by_rows(arcs, contracted)
        seen.add((2 * len(contracted) <= len(arcs), closed))
        if closed:
            assert ArcCongruence(3, contracted).contracted == contracted
        else:
            with pytest.raises(ValueError, match="not closed above"):
                ArcCongruence(3, contracted)
    assert seen == {(small, closed) for small in (True, False) for closed in (True, False)}


@pytest.mark.parametrize(
    "cls,n,subarc",
    [(ArcCongruence, 2, is_subarc), (ArcCongruence, 3, is_subarc), (ArcCongruence, 4, is_subarc),
     (forcing.ArcCongruenceA, 2, arcs_a.is_subarc), (forcing.ArcCongruenceA, 3, arcs_a.is_subarc)],
)
def test_all_but_one_arc_is_closed_exactly_at_minimal_arcs(cls, n, subarc):
    """Contracting every arc but a fails exactly when a has a proper subarc:
    a large contracted set, so the check reads the uncontracted arc's column."""
    arcs = cls.table(n).arcs
    minimal = 0
    for a in arcs:
        contracted = frozenset(arcs) - {a}
        if any(b != a and subarc(b, a) for b in arcs):
            with pytest.raises(ValueError, match="not closed above"):
                cls(n, contracted)
        else:
            minimal += 1
            assert cls(n, contracted).uncontracted() == {a}
    assert 0 < minimal < len(arcs)
