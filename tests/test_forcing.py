import functools
import hashlib
import itertools
import math
import operator
import random
import re

import pytest

from arclat import arcs_a, arcs_b, catalog, forcing, lattice as lat
from arclat.arcs_b import LongArc, OrbifoldArc, OrdinaryArc
from arclat.forcing import (
    ArcCongruence,
    ArcCongruenceA,
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
    SignedPermutation,
    all_signed_permutations,
    signed_words,
    unfold,
    weak_order_lattice,
)
from arclat.util import transitive_closure
from test_lattice import is_congruence


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


def table_by_relation(arcs, relation):
    """Reference columns and rows: one relation call per ordered pair."""
    cols = [sum(1 << i for i, a in enumerate(arcs) if relation(a, b)) for b in arcs]
    rows = [sum(1 << j for j, col in enumerate(cols) if col >> i & 1) for i in range(len(arcs))]
    return cols, rows


def assert_table_matches(table, relation):
    m = len(table.arcs)
    cols, rows = table_by_relation(table.arcs, relation)
    assert [table.col(j) for j in range(m)] == cols
    assert [table.row(i) for i in range(m)] == rows


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_subarc_table_matches_is_subarc(n):
    assert_table_matches(forcing.subarc_table(n), is_subarc)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_subarc_table_matches_type_a_subarcs(n):
    assert_table_matches(forcing.symmetric_subarc_table(n), arcs_a.is_subarc)


@pytest.mark.parametrize("n", [2, 3])
def test_loose_subarc_table_matches_is_loose_subarc(n):
    assert_table_matches(forcing.loose_subarc_table(n), is_loose_subarc)


@pytest.mark.parametrize(
    "build,relation",
    [
        (functools.partial(forcing.subarc_table.__wrapped__, 4), is_subarc),
        (functools.partial(forcing.symmetric_subarc_table.__wrapped__, 3), arcs_a.is_subarc),
        (functools.partial(forcing.loose_subarc_table.__wrapped__, 3), is_loose_subarc),
    ],
)
def test_rows_are_computed_without_columns(build, relation):
    table = build()
    _cols, rows = table_by_relation(table.arcs, relation)
    assert [table.row(i) for i in range(len(table.arcs))] == rows
    assert table._cols == [None] * len(table.arcs)


def rows_by_scan(n, keys, pieces, long=None):
    """Reference rows: every piece key (s, t, r) of arc i tested against
    every key (p, q, right), p <= s < t <= q and right & span(s, t) == r,
    a long arc i only through its own key and only against long keys."""
    long = long or [False] * len(keys)
    rows = []
    for i in range(len(keys)):
        subs = [keys[i]] if long[i] else pieces[i]
        row = 0
        for s, t, r in subs:
            span = arcs_b.span(n, s, t)
            for j, (p, q, right) in enumerate(keys):
                if p <= s and t <= q and right & span == r and (long[j] or not long[i]):
                    row |= 1 << j
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_subarc_rows_match_the_scan_of_every_main_key(n):
    keyed = arcs_b.keyed_arcs(n)
    pieces = [[] for _ in keyed.main]
    for key, i in keyed.index.items():
        pieces[i].append(key)
    long = [p < 0 and p != -q for p, q, _right in keyed.main]
    table = forcing.subarc_table(n)
    assert [table.row(i) for i in range(len(keyed.main))] == rows_by_scan(n, keyed.main, pieces, long)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_subarc_rows_match_the_scan_of_every_key(n):
    table = forcing.symmetric_subarc_table(n)
    rows = rows_by_scan(n, table.keys, [[key] for key in table.keys])
    assert [table.row(i) for i in range(len(table.keys))] == rows


def kept(table):
    """The bitmasks of the rows and of the columns that table has computed."""
    return tuple(sum(1 << i for i, x in enumerate(side) if x is not None) for side in (table._rows, table._cols))


def test_validation_reads_the_side_with_fewer_arcs():
    """On fresh tables at n = 7 (2,179 arcs).  A Cambrian congruence
    contracts 2,130 arcs, the parabolic one of s3 2,145 and the full one all,
    so each reads the columns of its uncontracted arcs and computes no row
    but its generators' (so the Cambrian and full checks build no row
    planes).  Arc 111 generates 1,050 contracted arcs, and its check reads
    their rows and no column."""
    cases = [
        (lambda: catalog.cambrian_congruence(7, catalog.Designation.parse("RRRRRR")), 49, 0),
        (lambda: ArcCongruence.full(7), 0, 0),
        (lambda: catalog.parabolic_congruence(7, [3]), 34, 1),
    ]
    for build, uncontracted, generators in cases:
        forcing.subarc_table.cache_clear()
        theta = build()
        table = forcing.subarc_table(7)
        outside = table.full & ~theta.mask
        assert outside.bit_count() == uncontracted
        rows, cols = kept(table)
        assert cols == outside
        assert rows.bit_count() == generators and rows & outside == 0
    forcing.subarc_table.cache_clear()
    theta = ArcCongruence.from_generators(7, [forcing._all_arcs(7)[111]])
    table = forcing.subarc_table(7)
    assert theta.mask.bit_count() == 1050
    assert kept(table) == (theta.mask, 0)


def test_long_arc_counts_only_through_its_main_piece():
    """Both pieces of the bare long arc on 1, 2 are type-A subarcs of the
    orbifold arc's piece, yet the long arc is no subarc of it."""
    long, orb = LongArc(1, 2, frozenset(), frozenset()), OrbifoldArc(2, frozenset())
    (piece,) = arcs_b.unfold_arcs(orb)
    assert all(arcs_a.is_subarc(a, piece) for a in arcs_b.unfold_arcs(long))
    assert not is_subarc(long, orb)
    table = forcing.subarc_table(2)
    assert not table.col(table.index_of(orb)) >> table.index_of(long) & 1


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
    closure = transitive_closure(forcing.arrow_rows(n))
    for i, a in enumerate(arcs):
        for j, b in enumerate(arcs):
            assert bool(closure[i] >> j & 1) == is_subarc(a, b)


# has_arrow's edges as (source, target) indices into _all_arcs(n): their
# count and the SHA-256 of their repr, recorded while _chain_arrow read the
# piece with the lower bottom of a long target rather than its main piece.
ARROW_EDGES = {
    2: (8, "db1d011794dac30f8e7a2f552f437b56de407c94e2c9b1da07fc90f42b85996d"),
    3: (68, "5b08658577e6bf14a3df6fba44b6437b235540239851b92b7badf24affa289b5"),
    4: (368, "25ebeff935669f16810a0737c09954fc54dc9f84f49b59fe2eb9735b5bf3234e"),
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_arrow_edges_match_the_stored_edge_sets(n):
    """has_arrow on every pair, and the rows of arrow_rows expanded in order,
    both as index pairs."""
    arcs = forcing._all_arcs(n)
    edges = [(i, j) for i, a in enumerate(arcs) for j, b in enumerate(arcs) if has_arrow(a, b)]
    assert (len(edges), hashlib.sha256(repr(edges).encode()).hexdigest()) == ARROW_EDGES[n]
    listed = [(i, j) for i, row in enumerate(forcing.arrow_rows(n)) for j in range(len(arcs)) if row >> j & 1]
    assert (len(listed), hashlib.sha256(repr(listed).encode()).hexdigest()) == ARROW_EDGES[n]


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
        ArcCongruence.from_arcs(3, [s0])


def test_contracted_arcs_must_fit():
    with pytest.raises(ValueError, match="does not fit"):
        ArcCongruence.from_arcs(2, [OrbifoldArc(5, frozenset())])


@pytest.mark.parametrize("cls,n", [(ArcCongruence, 2), (ArcCongruence, 3), (ArcCongruenceA, 2)])
def test_masks_outside_the_table_are_refused(cls, n):
    full = cls.table(n).full
    assert cls(n, full).mask == full
    for mask in (full + 1, 1 << full.bit_length(), -1, -full - 1):
        with pytest.raises(ValueError, match="bits outside"):
            cls(n, mask)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_membership_matches_the_contracted_set(n):
    """in agrees with the contracted set on every arc, and on arcs and
    objects outside the table, over the identity, the full congruence and
    every Cambrian designation."""
    thetas = [ArcCongruence.identity(n), ArcCongruence.full(n)] + [
        catalog.cambrian_congruence(n, catalog.Designation(sides))
        for sides in itertools.product("LR", repeat=n - 1)
    ]
    others = [OrbifoldArc(n + 1, frozenset()), arcs_a.make_arc(1, 2), "Orb(1;R=[])"]
    for theta in thetas:
        for arc in arcs_b.all_arcs(n) + others:
            assert (arc in theta) == (arc in theta.contracted), (theta, arc)
    for theta in (ArcCongruenceA.identity(2), ArcCongruenceA.full(2)):
        for arc in arcs_a.all_arcs([-2, -1, 1, 2]) + [arcs_a.make_arc(1, 3), OrbifoldArc(1, frozenset())]:
            assert (arc in theta) == (arc in theta.contracted), (theta, arc)


def test_membership_builds_only_the_arc_it_asks_about(monkeypatch):
    """in reads one bit of the mask: at n = 7 the only arc object built is
    the one asked about."""
    theta = catalog.cambrian_congruence(7, catalog.Designation(tuple("R" * 6)))
    built = []
    for cls in (OrdinaryArc, OrbifoldArc, LongArc):
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=cls.__post_init__: built.append(self) or check(self))
    assert OrdinaryArc(1, 2, frozenset()) not in theta
    assert len(built) <= 1


def test_from_arcs_gives_back_the_stored_congruence():
    for theta in forcing.all_congruences(2) + [catalog.hom_congruence(3, "nonhom")]:
        back = ArcCongruence.from_arcs(theta.n, theta.contracted)
        assert back == theta and hash(back) == hash(theta)
        assert back.contracted == theta.contracted
        assert back.uncontracted() == frozenset(arcs_b.all_arcs(theta.n)) - theta.contracted


def _generated_sample(n, count, seed):
    arcs = arcs_b.all_arcs(n)
    rng = random.Random(seed)
    return [ArcCongruence.from_generators(n, rng.sample(arcs, rng.randint(1, 3))) for _ in range(count)]


@pytest.mark.parametrize(
    "pairs",
    [
        lambda: itertools.product(forcing.all_congruences(2), repeat=2),
        lambda: zip(_generated_sample(3, 150, 5), _generated_sample(3, 150, 6)),
    ],
    ids=["B2-every-pair", "B3-seeded"],
)
def test_meet_and_join_are_the_intersection_and_union(pairs):
    seen = 0
    for t1, t2 in pairs():
        meet, join = congruence_meet(t1, t2), congruence_join(t1, t2)
        assert meet.contracted == t1.contracted & t2.contracted
        assert join.contracted == t1.contracted | t2.contracted
        seen += 1
    assert seen >= 150


def test_con_a_membership_refuses_the_symmetric_model():
    theta = ArcCongruenceA.from_generators(2, forcing.symmetric_subarc_table(2).arcs[:1])
    with pytest.raises(TypeError, match="not a congruence of the signed weak order"):
        is_in_con_a(theta)


@pytest.mark.parametrize(
    "work",
    [
        lambda: forcing.quotient_elements(ArcCongruence.identity(7)),
        lambda: forcing.element_partition(ArcCongruence.identity(7)),
        lambda: ArcCongruence.full(8),
        lambda: ArcCongruence.from_generators(9, [OrbifoldArc(1, frozenset())]),
        lambda: forcing.arrow_rows(8),
        lambda: catalog.cambrian_congruence(8, catalog.Designation(tuple("R" * 7))),
        lambda: forcing.all_congruences(4),
        lambda: list(lat.all_congruences(lat.build_lattice([(i, i + 1) for i in range(27)]))),
        lambda: forcing.descent_table(7),
    ],
)
def test_scope_guards(work):
    with pytest.raises(lat.ScopeExceeded):
        work()


def test_quotient_elements_sizes():

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


def quotient_lattice_by_inversion_sets(theta):
    """The quotient lattice as quotient_lattice first built it: pi covers q
    when q's inversion set lies strictly inside pi's and no third quotient
    element's lies strictly between them."""
    elems = forcing.quotient_elements(theta)
    inv = {pi: pi.inversions() for pi in elems}
    lower = {pi: [q for q in elems if inv[q] < inv[pi]] for pi in elems}
    covers = [
        (q, pi) for pi in elems for q in lower[pi]
        if not any(inv[q] < inv[r] for r in lower[pi])
    ]
    return lat.build_lattice(covers, elems)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotient_lattice_matches_the_inversion_set_scan(n):
    """The identity, and the congruence generated by each single arc."""
    table = forcing.subarc_table(n)
    thetas = [ArcCongruence.identity(n)] + [ArcCongruence.from_generators(n, [a]) for a in table.arcs]
    for theta in thetas:
        q, ref = forcing.quotient_lattice(theta), quotient_lattice_by_inversion_sets(theta)
        assert q.labels == ref.labels and q.covers() == ref.covers(), theta


def test_congruence_meet_join():
    t1 = catalog.parabolic_congruence(3, [0])
    ident = ArcCongruence.identity(3)
    assert congruence_meet(t1, ident).contracted == frozenset()
    assert congruence_join(t1, t1).contracted == t1.contracted


def test_congruence_meet_join_keep_the_arc_model():
    """Meets and joins of the congruences on the arcs on -2, -1, 1, 2
    generated by one arc each are congruences of that model too, and a
    congruence of the other model is refused."""
    table = forcing.symmetric_subarc_table(2)
    thetas = [ArcCongruenceA.from_generators(2, [a]) for a in table.arcs]
    for t1, t2 in itertools.product(thetas, repeat=2):
        meet, join = congruence_meet(t1, t2), congruence_join(t1, t2)
        assert type(meet) is type(join) is ArcCongruenceA
        assert meet.contracted == t1.contracted & t2.contracted
        assert join.contracted == t1.contracted | t2.contracted
    for op in (congruence_meet, congruence_join):
        with pytest.raises(ValueError):
            op(thetas[0], ArcCongruence.identity(2))
        with pytest.raises(ValueError):
            op(ArcCongruence.full(2), thetas[0])


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
        assert is_congruence(W, classes)


def lattice_contracted_arcs(n):
    """The contracted arc sets of every congruence of the weak order on B_n,
    enumerated on the lattice side and mapped through the arc bijection."""
    W = weak_order_lattice(CoxeterType("B", n))
    arc_of = {j: arcs_b.arc_of_join_irreducible(W.labels[j]) for j in W.jis}
    return [frozenset(arc_of[j] for j in lat.contracted_jis(W, cong)) for cong in lat.all_congruences(W)]


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
    for theta in forcing.all_congruences(2):
        part = {(x, y) for c in forcing.element_partition(theta) for x in c for y in c}
        for arc in theta.contracted:
            j = W.index[SignedPermutation(arcs_b.join_irreducible_word(arc, 2))]
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
        forcing.ArcCongruenceA.from_arcs(2, [centre])
    wide = next(a for a in _symmetric_arcs(3) if (a.bottom, a.top) == (-3, 3))
    with pytest.raises(ValueError, match="does not fit"):
        forcing.ArcCongruenceA.from_arcs(2, [wide])


@pytest.mark.parametrize("n", [2, 3])
def test_symmetric_generators_contract_their_superarcs(n):
    arcs = _symmetric_arcs(n)
    for g in arcs:
        theta = forcing.ArcCongruenceA.from_generators(n, [g])
        assert theta.contracted == frozenset(b for b in arcs if arcs_a.is_subarc(g, b))


def _is_symmetric_by_objects(theta):
    """Reference: the contracted arc objects are closed under the antipode."""
    return all(arcs_a.antipode(a) in theta.contracted for a in theta.contracted)


@pytest.mark.parametrize("n", [2, 3])
def test_symmetry_on_the_mask_matches_the_antipodes_of_the_arcs(n):
    arcs = _symmetric_arcs(n)
    thetas = [forcing.ArcCongruenceA.from_generators(n, [g]) for g in arcs]
    rng = random.Random(n)
    for _ in range(200):
        gens = rng.sample(arcs, rng.randint(1, 4))
        if rng.random() < 0.5:
            gens += [arcs_a.antipode(g) for g in gens]
        thetas.append(forcing.ArcCongruenceA.from_generators(n, gens))
    outcomes = [theta.is_symmetric() for theta in thetas]
    assert outcomes == [_is_symmetric_by_objects(theta) for theta in thetas]
    assert True in outcomes and False in outcomes


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


def same_partition_by_pairs(xs, ys):
    """The pairwise reference: xs[i] == xs[j] iff ys[i] == ys[j]."""
    return all((xs[i] == xs[j]) == (ys[i] == ys[j]) for i, j in itertools.combinations(range(len(xs)), 2))


@pytest.mark.parametrize("n", [2, 3])
def test_partition_count_matches_the_pairwise_check(n):
    """verify.suite_con_a compares the two projections by counting value
    pairs; at n = 2 every congruence, at n = 3 every one-generator one, with
    the unguarded lift, which equals the guarded one on members."""
    elements = list(all_signed_permutations(n))
    thetas = forcing.all_congruences(2) if n == 2 else [
        ArcCongruence.from_generators(3, [a]) for a in arcs_b.all_arcs(3)
    ]
    verdicts = set()
    for theta in thetas:
        lifted = forcing.unfolded_lift(theta)
        assert lifted is not None
        if is_in_con_a(theta):
            assert lifted == lift_to_symmetric(theta)
        pb = [forcing.project(pi, theta) for pi in elements]
        pa = [forcing.project_word(unfold(pi), lifted) for pi in elements]
        counted = len(set(zip(pb, pa))) == len(set(pb)) == len(set(pa))
        assert counted == same_partition_by_pairs(pb, pa)
        verdicts.add(counted)
    assert verdicts == {True, False}


def project_word_by_objects(word, theta):
    """project_word on arc objects: the first descent whose ArcA is
    contracted is removed, until there is none."""
    contracted, word = theta.contracted, tuple(word)
    while (step := next((i for i, arc in arcs_a.descent_arcs(word) if arc in contracted), None)) is not None:
        word = word[:step] + (word[step + 1], word[step]) + word[step + 2:]
    return word


def test_project_refuses_a_permutation_of_another_rank():
    """Every element of B3 under a rank-4 Cambrian congruence, and a rank-5
    one, which the rank-4 keys would leave as it is."""
    theta = catalog.cambrian_congruence(4, catalog.Designation.parse("RRR"))
    for pi in [*all_signed_permutations(3), SignedPermutation((5, 4, 3, 2, 1))]:
        with pytest.raises(ValueError, match="rank"):
            forcing.project(pi, theta)


@pytest.mark.parametrize("word", [(2, 1), (1, 2, 3, -3, -2, -1, 4, -4), (1, 1, 2, -1, -2, -3), (0, 1, 2, -1, -2, -3)])
def test_project_word_refuses_a_word_that_is_not_a_permutation_of_its_points(word):
    with pytest.raises(ValueError, match="not a permutation"):
        forcing.project_word(word, ArcCongruenceA.full(3))


@pytest.mark.parametrize("n", [2, 3])
def test_project_word_matches_the_object_reference(n):
    """On every word and lifted congruence of the project_word tests above:
    the unfolded signed words, under the lift of every congruence at n = 2
    and of every one-generator one at n = 3."""
    thetas = forcing.all_congruences(2) if n == 2 else [
        ArcCongruence.from_generators(3, [a]) for a in arcs_b.all_arcs(3)
    ]
    words = [unfold(pi) for pi in all_signed_permutations(n)]
    moved = 0
    for theta in thetas:
        lifted = forcing.unfolded_lift(theta)
        for word in words:
            projected = forcing.project_word(word, lifted)
            assert projected == project_word_by_objects(word, lifted), (theta, word)
            moved += projected != word
    assert moved


def test_principal_contracted_arcs_are_superarc_closures_rank_three():
    """Element-level principal congruences contract exactly the superarcs."""
    W = weak_order_lattice(CoxeterType("B", 3))
    arcs = arcs_b.all_arcs(3)
    for arc in arcs:
        j = W.index[SignedPermutation(arcs_b.join_irreducible_word(arc, 3))]
        theta = lat.principal_congruence(W, j)
        contracted = {arcs_b.arc_of_join_irreducible(W.labels[x]) for x in lat.contracted_jis(W, theta)}
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
        expect = {W.labels[j] for j in W.jis if not cong.same(j, W.covers_down[j][0])}
        assert {q.labels[j] for j in q.jis} == expect


@functools.lru_cache(maxsize=1)
def descent_arcs_by_word(n):
    """Each signed word of rank n with its quotient descent arcs, in the order
    of all_signed_permutations; the latest rank is kept, since the tests
    that read it go through the ranks in turn."""
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
    return elements, classes


@pytest.mark.parametrize("n,stride", [(2, 1), (3, 8)])
def test_quotients_match_descent_arc_references(n, stride):
    """Every stride-th congruence in enumeration order (1,046 at n = 3): all
    8,368 would add about 8 s to the suite."""
    for theta in all_arc_congruences(n)[::stride]:
        assert_quotient_matches_references(theta)


def quotient_words_by_scan(theta):
    """The whole-group scan: every signed word, kept when none of its
    descent keys is among the contracted ones."""
    keys = theta.contracted_keys
    return [w for w in signed_words(theta.n)
            if keys.isdisjoint(key for _k, key in arcs_b.descent_keys(w, theta.n))]


def classes_by_project(theta):
    """The fibers of project, each element walked down one step at a time."""
    fibers = {}
    for pi in all_signed_permutations(theta.n):
        fibers.setdefault(forcing.project(pi, theta), []).append(pi)
    return list(fibers.values())


def test_named_quotients_match_descent_arc_references():
    n = 4
    cambrian = [
        catalog.cambrian_congruence(n, catalog.Designation(s))
        for s in itertools.product("RL", repeat=n - 1)
    ]
    parabolic = [
        catalog.parabolic_congruence(n, gens)
        for k in range(n + 1)
        for gens in itertools.combinations(range(n), k)
    ]
    for theta in cambrian + parabolic:
        elements, _classes = assert_quotient_matches_references(theta)
        assert elements == quotient_words_by_scan(theta)
    for theta in cambrian:
        assert forcing.element_partition(theta) == classes_by_project(theta)


def rank_five_congruences():
    """Four Cambrian, four parabolic and four seeded generated congruences,
    the last generated by arcs on the first three points, so that each
    contracts many arcs."""
    n, rng = 5, random.Random(5)
    thetas = [
        catalog.cambrian_congruence(n, catalog.Designation(tuple(s)))
        for s in ("RRRR", "LLLL", "RLRL", "LRRL")
    ]
    thetas += [catalog.parabolic_congruence(n, gens) for gens in ((0,), (1, 3), (0, 2, 4), (1, 2, 3, 4))]
    low = arcs_b.all_arcs(3)
    thetas += [ArcCongruence.from_generators(n, rng.sample(low, k)) for k in (1, 1, 2, 3)]
    return thetas


def test_rank_five_quotients_match_descent_arc_references():
    sizes = [len(assert_quotient_matches_references(theta)[0]) for theta in rank_five_congruences()]
    assert sizes == [252] * 4 + [120, 8, 4, 2] + [3516, 3468, 1728, 48]


def test_single_generator_quotients_match_the_references():
    """All 76 single-generator congruences of B4, through both references
    and the whole-group scan."""
    arcs = forcing._all_arcs(4)
    assert len(arcs) == 76
    for arc in arcs:
        theta = ArcCongruence.from_generators(4, [arc])
        elements, _classes = assert_quotient_matches_references(theta)
        assert elements == quotient_words_by_scan(theta)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_word_at_decodes_the_signed_words_index(n):
    assert [forcing._word_at(n, i) for i in range(2**n * math.factorial(n))] == list(signed_words(n))


@pytest.mark.parametrize("sides", ["RRRRR", "RLRLR"])
def test_rank_six_cambrian_elements_match_the_scan(sides):
    theta = catalog.cambrian_congruence(6, catalog.Designation(tuple(sides)))
    elements = [pi.word for pi in forcing.quotient_elements(theta)]
    assert len(elements) == math.comb(12, 6) == 924
    assert elements == quotient_words_by_scan(theta)


def test_signed_quotients_refuse_symmetric_congruences():
    theta = forcing.ArcCongruenceA.from_generators(2, [_symmetric_arcs(2)[0]])
    for work in (forcing.quotient_elements, forcing.element_partition):
        with pytest.raises(TypeError):
            work(theta)


@pytest.fixture
def fresh_store():
    """Empty element stores; the descent tables, which hold them, go too."""
    forcing._signed_store.cache_clear()
    forcing.descent_table.cache_clear()
    yield
    forcing._signed_store.cache_clear()
    forcing.descent_table.cache_clear()


@pytest.mark.parametrize("n", [3, 4])
def test_quotient_paths_share_one_element_per_word(n, fresh_store):
    """Quotient elements first, so that the descent table finds some slots
    filled and keeps them; every list is new, every element shared."""
    thetas = [catalog.cambrian_congruence(n, catalog.Designation(tuple("RL" * n)[: n - 1])),
              catalog.parabolic_congruence(n, [1]), ArcCongruence.identity(n)]
    for theta in thetas:
        elements = forcing.quotient_elements(theta)
        again = forcing.quotient_elements(theta)
        assert again is not elements and all(a is b for a, b in zip(again, elements))
        classes = forcing.element_partition(theta)
        assert forcing.element_partition(theta) is not classes
        by_word = {pi.word: pi for c in classes for pi in c}
        assert len(by_word) == 2**n * math.factorial(n)
        assert all(by_word[pi.word] is pi for pi in elements)
        assert all(by_word[w] is pi for w, pi in zip(signed_words(n), forcing.descent_table(n).elements))


def test_store_fills_only_the_slots_of_the_output(fresh_store):
    theta = catalog.cambrian_congruence(6, catalog.Designation(tuple("RLRLR")))
    elements = forcing.quotient_elements(theta)
    store = forcing._signed_store(6)
    assert len(store) == 46080
    assert sum(pi is not None for pi in store) == len(elements) == 924
    words = list(signed_words(6))
    assert all(store[i].word == w for i, w in enumerate(words) if store[i] is not None)


def test_store_refuses_rank_seven_before_allocating():
    import tracemalloc

    theta = ArcCongruence.identity(7)
    theta.contracted_keys
    stored = forcing._signed_store.cache_info().currsize
    tracemalloc.start()
    try:
        for work in (lambda: forcing._signed_store(7), lambda: forcing.quotient_elements(theta)):
            with pytest.raises(lat.ScopeExceeded):
                work()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the 645,120 slots would take 5 MB
    assert forcing._signed_store.cache_info().currsize == stored


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_descent_table_invariants(n):
    """Each entry is a descent of its word, in signed_descent_arcs order, with
    its arc and the word one step down, one shorter; descents[i] is the OR of
    the word's arc bits; order sorts by length."""
    table = forcing.descent_table(n)
    arcs = forcing.subarc_table(n).arcs
    words = list(signed_words(n))
    length = [SignedPermutation(w).length() for w in words]
    assert len(table.start) == len(words) + 1
    assert sorted(table.order) == list(range(len(words)))
    assert [length[i] for i in table.order] == sorted(length)
    rank = {i: r for r, i in enumerate(table.order)}
    arcs_of = descent_arcs_by_word(n)
    for i, w in enumerate(words):
        entries = range(table.start[i], table.start[i + 1])
        descents = arcs_of[w]
        assert [arcs[table.arc[j]] for j in entries] == [arc for _k, arc in descents]
        assert table.descents[i] == functools.reduce(operator.or_, (1 << table.arc[j] for j in entries), 0)
        for j, (k, _arc) in zip(entries, descents):
            lower = list(w)
            if k == "center":
                lower[0] = -lower[0]
            else:
                lower[k], lower[k + 1] = lower[k + 1], lower[k]
            assert words[table.lower[j]] == tuple(lower)
            assert length[table.lower[j]] == length[i] - 1
            assert rank[table.lower[j]] < rank[i]


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
            assert ArcCongruence.from_arcs(3, contracted).contracted == contracted
        else:
            with pytest.raises(ValueError, match="not closed above"):
                ArcCongruence.from_arcs(3, contracted)
    assert seen == {(small, closed) for small in (True, False) for closed in (True, False)}


@pytest.mark.parametrize("cls,n", [(ArcCongruence, 2), (ArcCongruence, 3), (ArcCongruence, 4),
                                   (forcing.ArcCongruenceA, 2), (forcing.ArcCongruenceA, 3)])
def test_rows_and_columns_find_the_same_first_unclosed_arc(cls, n):
    """On seeded sets that are not up-closed, random ones and closures with
    one arc flipped, both sides of the validation name the lowest contracted
    arc below an uncontracted one, and the error names it too."""
    table = cls.table(n)
    m = len(table.arcs)
    rng = random.Random(n)
    lows = set()
    for k in range(400):
        if k % 2:
            mask = rng.getrandbits(m)
        else:
            mask = table.up(1 << rng.randrange(m)) ^ 1 << rng.randrange(m)
        outside = table.full & ~mask
        expect = next((i for i in range(m) if mask >> i & 1 and table.row(i) & outside), None)
        if expect is None:
            continue
        lows.add(expect)
        assert forcing._first_unclosed(table, mask, True) == expect
        assert forcing._first_unclosed(table, mask, False) == expect
        with pytest.raises(ValueError, match=f"not closed above {re.escape(str(table.arcs[expect]))}$"):
            cls.from_arcs(n, table.arcs_of(mask))
    assert len(lows) > 1


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
                cls.from_arcs(n, contracted)
        else:
            minimal += 1
            assert cls.from_arcs(n, contracted).uncontracted() == {a}
    assert 0 < minimal < len(arcs)
