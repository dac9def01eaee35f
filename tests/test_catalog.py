import itertools
import math

import pytest

from arclat import arcs_b, catalog, forcing, lattice as lat
from arclat.arcs_b import LongArc, OrbifoldArc, OrdinaryArc
from arclat.catalog import (
    Designation,
    MalformedPartition,
    NCBlock,
    NCPartitionB,
    bicambrian_bipartite,
    bicambrian_linear,
    cambrian_congruence,
    cambrian_meet_rep,
    cambrian_pattern_test,
    cambrian_pattern_test_312,
    diagram_of_ncp,
    hom_congruence,
    is_alternating_arc,
    ncp_of_diagram,
    parabolic_congruence,
    passes_left_of,
    passes_right_of,
)
from arclat.permutations import (
    CoxeterType,
    SignedPermutation,
    all_signed_permutations,
    weak_order_lattice,
)


def test_passes_relation_for_long_arcs():
    arc = LongArc(1, 2, frozenset(), frozenset())
    assert passes_right_of(arc, 1)  # the right piece runs right of the point
    assert not passes_left_of(arc, 1)
    deep = LongArc(2, 3, frozenset(), frozenset())
    assert passes_left_of(deep, 1) and passes_right_of(deep, 1)


def test_parabolic_full_set_collapses():
    theta = parabolic_congruence(3, [0, 1, 2])
    assert len(forcing.quotient_elements(theta)) == 1


def test_parabolic_rejects_generators_out_of_range():
    for gens in ([9], [3], [0, -1]):
        with pytest.raises(ValueError):
            parabolic_congruence(3, gens)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parabolic_quotient_sizes(n):
    for i in range(n):
        theta = parabolic_congruence(n, [i])
        expect = (
            math.factorial(n)
            if i == 0
            else 2**i * math.factorial(i) * math.factorial(n - i)
        )
        assert len(forcing.quotient_elements(theta)) == expect


def test_parabolic_closed_forms():
    for n in (2, 3, 4, 5):
        for k in range(n):
            for gens in itertools.combinations(range(n), k):
                theta = parabolic_congruence(n, gens)
                assert theta.contracted == catalog.parabolic_closed_form(n, gens), (n, gens)


@pytest.mark.parametrize("variant", ["simion", "nonhom", "delta", "delta_mirror"])
def test_hom_closed_forms(variant):
    for n in (3, 4) if variant != "nonhom" else (3,):
        assert hom_congruence(n, variant).contracted == catalog.hom_closed_form(n, variant)


def test_hom_rank_two_contractions():
    pairs_a = {SignedPermutation((2, -1)), SignedPermutation((-2, -1))}
    pairs_b = {SignedPermutation((-2, 1)), SignedPermutation((1, -2))}
    for variant in ("simion", "delta", "delta_mirror"):
        theta = hom_congruence(2, variant)
        contracted = {arcs_b.join_irreducible_signed(a, 2) for a in theta.contracted}
        assert len(contracted & pairs_a) == 1
        assert len(contracted & pairs_b) == 1


def test_hom_quotients_rank_three():
    S4 = weak_order_lattice(CoxeterType("A", 4))
    q = forcing.quotient_lattice(hom_congruence(3, "nonhom"))
    assert q.n == 24
    assert lat.is_isomorphic(q, S4)
    q = forcing.quotient_lattice(hom_congruence(3, "simion"))
    assert q.n == 24  # lattice-hood is checked by construction


@pytest.mark.parametrize(
    "n,expect", [(2, 6), (3, 20)]
)
def test_cambrian_quotient_sizes(n, expect):
    for sides in itertools.product("RL", repeat=n - 1):
        d = Designation(tuple(sides))
        theta = cambrian_congruence(n, d)
        assert len(forcing.quotient_elements(theta)) == expect
        assert expect == math.comb(2 * n, n)


def test_cambrian_pattern_identity():
    d = Designation(("R", "L"))
    assert cambrian_pattern_test(SignedPermutation((1, 2, 3)), d)


@pytest.mark.parametrize("n", [2, 3])
def test_cambrian_pattern_equivalences(n):
    for sides in itertools.product("RL", repeat=n - 1):
        d = Designation(tuple(sides))
        members = set(forcing.quotient_elements(cambrian_congruence(n, d)))
        for pi in all_signed_permutations(n):
            inside = pi in members
            assert cambrian_pattern_test(pi, d) == inside
            assert cambrian_pattern_test_312(pi, d) == inside


def test_meet_rep_shape_rank_six():
    d = Designation(("L", "R", "R", "L", "R"))
    arcs = cambrian_meet_rep(6, d)
    orb = arcs[0]
    assert isinstance(orb, OrbifoldArc) and orb.top == 6
    assert orb.right == d.right_points()
    by_kind = {a.left_end if isinstance(a, LongArc) else None for a in arcs[1:]}
    right_arc = next(a for a in arcs[1:] if a.left_end == 6)
    left_arc = next(a for a in arcs[1:] if a.right_end == 6)
    assert right_arc.right_end == max(d.right_points())
    assert left_arc.left_end == max(d.left_points())
    assert not right_arc.between_pieces and not left_arc.between_pieces


def test_meet_rep_tamari_has_two_arcs():
    d = Designation(("R", "R"))
    arcs = cambrian_meet_rep(3, d)
    assert len(arcs) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_meet_rep_equality(n):
    for sides in itertools.product("RL", repeat=n - 1):
        d = Designation(tuple(sides))
        acc = None
        for arc in cambrian_meet_rep(n, d):
            mi = forcing.meet_irreducible_congruence(n, arc)
            acc = mi if acc is None else forcing.congruence_meet(acc, mi)
        assert acc.contracted == cambrian_congruence(n, d).contracted


def test_ncp_empty_diagram():
    d = Designation(("R", "L"))
    part = ncp_of_diagram(arcs_b.DiagramB(3, frozenset()), d)
    assert all(b.kind == "plain" and len(b.points) == 1 for b in part.blocks)


@pytest.mark.parametrize("n", [2, 3])
def test_ncp_roundtrip(n):
    for sides in itertools.product("RL", repeat=n - 1):
        d = Designation(tuple(sides))
        for pi in forcing.quotient_elements(cambrian_congruence(n, d)):
            D = arcs_b.diagram_of_signed(pi)
            part = ncp_of_diagram(D, d)
            assert diagram_of_ncp(part, d) == D


def test_ncp_bijective_on_cambrian_elements():
    d = Designation(("R", "L"))
    seen = set()
    for pi in forcing.quotient_elements(cambrian_congruence(3, d)):
        part = ncp_of_diagram(arcs_b.diagram_of_signed(pi), d)
        key = tuple(
            (tuple(sorted(b.points)), b.kind, b.pieces and tuple(map(tuple, map(sorted, b.pieces))))
            for b in part.blocks
        )
        assert key not in seen
        seen.add(key)
    assert len(seen) == 20


def test_malformed_partition_rejected():
    with pytest.raises(MalformedPartition):
        NCPartitionB(3, (NCBlock(frozenset([1, 2]), "plain"),))
    with pytest.raises(MalformedPartition):
        NCPartitionB(
            2,
            (
                NCBlock(frozenset([1]), "orbifold"),
                NCBlock(frozenset([2]), "orbifold"),
            ),
        )
    with pytest.raises(MalformedPartition):
        NCBlock(frozenset([1, 2]), "wraps", (frozenset([1, 2]), frozenset()))


def test_alternating_examples():
    assert is_alternating_arc(OrdinaryArc(1, 2, frozenset()))
    assert is_alternating_arc(OrdinaryArc(1, 3, frozenset([2])))
    assert not is_alternating_arc(OrdinaryArc(1, 4, frozenset([2, 3])))
    assert not is_alternating_arc(OrdinaryArc(1, 4, frozenset()))
    assert not is_alternating_arc(LongArc(2, 3, frozenset(), frozenset()))  # point between
    assert is_alternating_arc(LongArc(1, 2, frozenset(), frozenset()))


@pytest.mark.parametrize("n", [3, 4])
def test_bicambrian_closed_forms_and_meets(n):
    bi = bicambrian_bipartite(n)
    lin = bicambrian_linear(n)
    assert bi.contracted == catalog.bicambrian_closed_form(n, "bipartite")
    assert lin.contracted == catalog.bicambrian_closed_form(n, "linear")
    gen = catalog.bicambrian_bipartite_generated(n)
    assert gen.contracted == bi.contracted
    assert lin.contracted != bi.contracted


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.xfail(
    strict=True,
    reason="the quoted linear generator list misses the minimal two-sided "
    "long arcs whose endpoints both exceed 1 (smallest case: the bare long "
    "arc with endpoints 2 and 3); the element-level congruence meet on the "
    "rank-3 lattice confirms those arcs are contracted, so the generated "
    "congruence is strictly finer than the linear family",
)
def test_linear_generators_reach_closed_form(n):
    gen = catalog.bicambrian_linear_generated(n)
    assert gen.contracted == bicambrian_linear(n).contracted


def test_bicambrian_scope():
    with pytest.raises(lat.ScopeExceeded):
        bicambrian_bipartite(2)


def test_ncp_rejects_contracted_arcs():
    d = Designation(("R", "L"))
    contracted = cambrian_congruence(3, d).contracted
    for arc in arcs_b.all_arcs(3):
        diagram = arcs_b.DiagramB(3, frozenset([arc]))
        if arc in contracted:
            with pytest.raises(ValueError, match="contracted"):
                ncp_of_diagram(diagram, d)
        else:
            assert diagram_of_ncp(ncp_of_diagram(diagram, d), d) == diagram
    with pytest.raises(ValueError, match="size mismatch"):
        ncp_of_diagram(arcs_b.DiagramB(2, frozenset()), d)
