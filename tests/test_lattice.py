import ast
import itertools
import pathlib

import pytest

from arclat import lattice as lat
from arclat.lattice import (
    Congruence,
    NotALattice,
    build_lattice,
    cjr_oracle,
    contracted_jis,
    forcing_oracle,
    is_congruence,
    is_congruence_algebraic,
    join_irreducibles,
    principal_congruence,
    quotient,
)
from arclat.permutations import (
    CoxeterType,
    Permutation,
    SignedPermutation,
    all_permutations,
    weak_order_lattice,
    weak_order_leq,
)

DIAMOND = [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]


def hexagon_covers():
    """Covers of the weak order on 3-letter words, brute-forced from
    inversion-set inclusion (the independent oracle for the lattice input)."""
    elems = list(all_permutations(3))
    less = {
        (u, w)
        for u in elems
        for w in elems
        if u != w and weak_order_leq(u, w)
    }
    covers = [
        (u, w)
        for (u, w) in less
        if not any((u, z) in less and (z, w) in less for z in elems)
    ]
    return covers


def test_diamond_meets_at_bottom():
    L = build_lattice(DIAMOND)
    a, b = L.index["a"], L.index["b"]
    assert L.meet(a, b) == L.index["0"]
    assert L.join(a, b) == L.index["1"]


def test_hexagon_from_brute_force_covers():
    L = build_lattice(hexagon_covers())
    assert L.n == 6
    assert len(join_irreducibles(L)) == 4


def test_two_maximal_elements_rejected():
    with pytest.raises(NotALattice):
        build_lattice([("0", "a"), ("0", "b")])


def test_non_cover_edge_rejected():
    with pytest.raises(NotALattice):
        build_lattice(DIAMOND + [("0", "1")])


def test_join_irreducibles_chain_and_octagon():
    chain = build_lattice([(i, i + 1) for i in range(4)])
    assert len(join_irreducibles(chain)) == 4
    octagon = weak_order_lattice(CoxeterType("B", 2))
    assert len(join_irreducibles(octagon)) == 6


def test_cjr_oracle_basics():
    L = weak_order_lattice(CoxeterType("B", 2))
    assert cjr_oracle(L, L.bottom) == frozenset()
    for j in join_irreducibles(L):
        assert cjr_oracle(L, j.element) == frozenset([j.element])
    top_rep = cjr_oracle(L, L.top)
    assert len(top_rep) == 2
    # enumeration oracle: the two canonical joinands are the atoms
    atoms = {i for i in L.elements() if L.covers_down[i] == [L.bottom]}
    assert top_rep == frozenset(atoms)


def test_is_congruence_trivial_partitions():
    L = build_lattice(hexagon_covers())
    singles = [[i] for i in L.elements()]
    assert is_congruence(L, singles)
    assert is_congruence(L, [list(L.elements())])


def test_is_congruence_rejects_atom_merge():
    L = build_lattice(hexagon_covers())
    atoms = [i for i in L.elements() if L.covers_down[i] == [L.bottom]]
    classes = [atoms] + [[i] for i in L.elements() if i not in atoms]
    assert not is_congruence(L, classes)
    assert not is_congruence_algebraic(L, classes)


def test_from_classes_rejects_overlaps_and_gaps():
    L = build_lattice(hexagon_covers())
    elems = list(L.elements())
    with pytest.raises(ValueError):
        Congruence.from_classes(L, [elems, elems[:1]])
    with pytest.raises(ValueError):
        Congruence.from_classes(L, [elems[1:]])
    assert Congruence.from_classes(L, [elems[:1], elems[1:]]).classes() == (
        tuple(elems[:1]),
        tuple(elems[1:]),
    )


def test_library_has_no_assert_statements():
    """Invariants raise InvariantError, so they still hold under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(lat.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_congruence_tests_agree_on_all_partitions_of_hexagon():
    L = build_lattice(hexagon_covers())
    for class_of in lat._set_partitions(L.n):
        buckets = {}
        for i, c in enumerate(class_of):
            buckets.setdefault(c, []).append(i)
        classes = list(buckets.values())
        assert is_congruence(L, classes) == is_congruence_algebraic(L, classes)


def test_principal_congruence_chain_atom():
    chain = build_lattice([(i, i + 1) for i in range(3)])
    theta = principal_congruence(chain, 1)
    assert theta.classes() == ((0, 1), (2,), (3,))


def test_principal_congruence_octagon():
    L = weak_order_lattice(CoxeterType("B", 2))
    j = L.index[SignedPermutation((2, -1))]  # covers one element
    theta = principal_congruence(L, j)
    contracted = {L.labels[x.element] for x in contracted_jis(L, theta)}
    assert contracted == {SignedPermutation((2, -1))}
    j2 = L.index[SignedPermutation((-2, -1))]
    theta2 = principal_congruence(L, j2)
    assert SignedPermutation((-2, -1)) in {
        L.labels[x.element] for x in contracted_jis(L, theta2)
    }


def test_principal_congruence_hexagon_atom_contracts_three():
    # the atom forces both of the longer join-irreducibles above it
    L = build_lattice(hexagon_covers())
    atom = L.index[Permutation((2, 1, 3))]
    theta = principal_congruence(L, atom)
    contracted = {L.labels[x.element].word for x in contracted_jis(L, theta)}
    assert contracted == {(2, 1, 3), (2, 3, 1), (3, 1, 2)}


def test_contracted_jis_trivial():
    L = build_lattice(hexagon_covers())
    ident = Congruence(L, list(L.elements()))
    assert contracted_jis(L, ident) == frozenset()
    full = Congruence(L, [0] * L.n)
    assert len(contracted_jis(L, full)) == len(join_irreducibles(L))


def test_quotient_identity_and_full():
    L = build_lattice(hexagon_covers())
    ident = Congruence(L, list(L.elements()))
    assert quotient(L, ident).n == L.n
    full = Congruence(L, [0] * L.n)
    assert quotient(L, full).n == 1


def test_quotient_octagon_to_hexagon():
    L = weak_order_lattice(CoxeterType("B", 2))
    j1 = L.index[SignedPermutation((2, -1))]
    j2 = L.index[SignedPermutation((1, -2))]
    theta = lat.congruence_generated_by(L, [j1, j2])
    q = quotient(L, theta)
    assert q.n == 6
    assert lat.is_isomorphic(q, build_lattice(hexagon_covers()))


def test_forcing_oracle_reflexive_and_examples():
    L = build_lattice(hexagon_covers())
    jis = {L.labels[j.element].word: j for j in join_irreducibles(L)}
    for j in jis.values():
        assert forcing_oracle(L, j, j)
    assert forcing_oracle(L, jis[(2, 1, 3)], jis[(3, 1, 2)])
    octagon = weak_order_lattice(CoxeterType("B", 2))
    ji2 = {octagon.labels[j.element]: j for j in join_irreducibles(octagon)}
    s0s1 = ji2[SignedPermutation((2, -1))]
    s1s0 = ji2[SignedPermutation((-2, 1))]
    assert not forcing_oracle(octagon, s0s1, s1s0)
    assert not forcing_oracle(octagon, s1s0, s0s1)


def test_cjr_quotient_check_identity():
    L = build_lattice(hexagon_covers())
    ident = Congruence(L, list(L.elements()))
    assert lat.cjr_quotient_check(L, ident)


@pytest.mark.parametrize("family,n", [("A", 4), ("A", 5), ("B", 3), ("B", 4)])
def test_lattice_axioms_sampled(family, n):
    import random

    W = weak_order_lattice(CoxeterType(family, n))
    rng = random.Random(n)
    for _ in range(300):
        a, b, c = (rng.randrange(W.n) for _ in range(3))
        assert W.join(a, b) == W.join(b, a)
        assert W.meet(a, b) == W.meet(b, a)
        assert W.join(a, W.join(b, c)) == W.join(W.join(a, b), c)
        assert W.meet(a, W.meet(b, c)) == W.meet(W.meet(a, b), c)
        assert W.join(a, a) == a and W.meet(a, a) == a
        assert W.join(a, W.meet(a, b)) == a
        assert W.meet(a, W.join(a, b)) == a


@pytest.mark.parametrize("family,n", [("A", 4), ("B", 3)])
def test_canonical_join_faces_are_cliques(family, n):
    """The family of canonical representations is determined by its pairs."""
    W = weak_order_lattice(CoxeterType(family, n))
    faces = set()
    for x in W.elements():
        rep = cjr_oracle(W, x)
        assert rep is not None
        faces.add(rep)
    edges = {
        frozenset(p)
        for face in faces
        for p in itertools.combinations(face, 2)
    }
    vertices = sorted({j for face in faces for j in face})
    # every pairwise-edge subset must itself be a face, and conversely
    def cliques(prefix, rest):
        yield frozenset(prefix)
        for k, v in enumerate(rest):
            if all(frozenset((v, u)) in edges for u in prefix):
                yield from cliques(prefix + [v], rest[k + 1:])

    all_cliques = set(cliques([], vertices))
    assert all_cliques == faces


def test_lattice_json_roundtrip():
    L = weak_order_lattice(CoxeterType("B", 2))
    data = lat.lattice_to_json(L)
    back = lat.lattice_from_json(data)
    assert back.n == L.n
    assert sorted(map(tuple, data["covers"])) == sorted(
        (a, b) for a, b in back.covers()
    )


def test_length_counts_inversions_rank_four_signed():
    from arclat.permutations import all_signed_permutations

    for pi in all_signed_permutations(4):
        assert pi.length() == len(pi.inversions())


def test_cjr_quotient_check_named_congruences():
    from arclat import arcs_b, catalog, forcing

    W = weak_order_lattice(CoxeterType("B", 3))
    for theta in (
        catalog.cambrian_congruence(3, catalog.Designation(("R", "L"))),
        catalog.parabolic_congruence(3, [1]),
    ):
        classes = [[W.index[pi] for pi in c] for c in forcing.element_partition(theta)]
        assert lat.cjr_quotient_check(W, Congruence.from_classes(W, classes))
    S4 = weak_order_lattice(CoxeterType("A", 4))
    j = next(iter(join_irreducibles(S4)))
    assert lat.cjr_quotient_check(S4, principal_congruence(S4, j))


def dual_lattice(L):
    return build_lattice(
        [(L.labels[b], L.labels[a]) for a, b in L.covers()], L.labels
    )


@pytest.mark.parametrize("family,n", [("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4)])
def test_cjr_oracle_total_both_ways(family, n):
    """Every element has a canonical join representation, in the weak order
    and in its order dual."""
    W = weak_order_lattice(CoxeterType(family, n))
    for i in range(W.n):
        assert cjr_oracle(W, i) is not None
    D = dual_lattice(W)
    for i in range(D.n):
        assert cjr_oracle(D, i) is not None


def cjr_by_search(L, x):
    """Canonical join representation by exhaustive search: enumerate the
    irredundant antichain join-representations of x by join-irreducibles
    and return the one whose order ideal lies in every other one's, or None."""
    if x == L.bottom:
        return frozenset()
    cands = [j.element for j in join_irreducibles(L) if L.leq(j.element, x)]
    suffix_join = [L.bottom] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix_join[i] = L.join(cands[i], suffix_join[i + 1])
    reps = []

    def rec(i, members, cur):
        if cur == x:
            for drop in range(len(members)):
                if L.join_all(members[:drop] + members[drop + 1:]) == x:
                    return  # redundant
            reps.append(members)
            return
        if i == len(cands) or L.join(cur, suffix_join[i]) != x:
            return
        rec(i + 1, members, cur)
        c = cands[i]
        if not L.leq(c, cur) and not any(L.leq(c, m) or L.leq(m, c) for m in members):
            rec(i + 1, members + (c,), L.join(cur, c))

    rec(0, (), L.bottom)
    ideals = [ideal_of(L, r) for r in reps]
    for r, ideal in zip(reps, ideals):
        if all(ideal & ~other == 0 for other in ideals):
            return frozenset(r)
    return None


def ideal_of(L, items):
    m = 0
    for x in items:
        m |= L.down[x]
    return m


M3 = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]
N5 = [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]


def meet_closed_lattice(rng, ground, picks):
    """The lattice of intersections of random subsets of a ground set,
    topped by the whole set, ordered by inclusion."""
    full = (1 << ground) - 1
    sets = {full} | {rng.getrandbits(ground) for _ in range(picks)}
    while True:
        more = {a & b for a in sets for b in sets} - sets
        if not more:
            break
        sets |= more
    covers = [
        (a, b)
        for a in sets
        for b in sets
        if a != b and a & b == a
        and not any(c not in (a, b) and a & c == a and c & b == c for c in sets)
    ]
    return build_lattice(covers, sorted(sets))


def check_against_search(L):
    """Assert cjr_oracle equals the search on every element of L; return
    how many elements have no canonical join representation."""
    nones = 0
    for x in L.elements():
        expect = cjr_by_search(L, x)
        assert cjr_oracle(L, x) == expect, (L, L.labels[x])
        nones += expect is None
    return nones


LATTICES = {
    "M3": lambda: build_lattice(M3),
    "N5": lambda: build_lattice(N5),
    "B2": lambda: weak_order_lattice(CoxeterType("B", 2)),
    "B3": lambda: weak_order_lattice(CoxeterType("B", 3)),
    "A4": lambda: weak_order_lattice(CoxeterType("A", 4)),
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_cjr_oracle_matches_search(name):
    L = LATTICES[name]()
    check_against_search(L)
    check_against_search(dual_lattice(L))


def test_cjr_oracle_matches_search_on_b3_quotients():
    W = weak_order_lattice(CoxeterType("B", 3))
    for j in join_irreducibles(W):
        check_against_search(quotient(W, principal_congruence(W, j)))


def test_cjr_oracle_matches_search_on_random_meet_closed_lattices():
    import random

    rng = random.Random(2015)
    nones = 0
    for _ in range(400):
        L = meet_closed_lattice(rng, rng.randint(3, 6), rng.randint(2, 8))
        nones += check_against_search(L)
    assert nones > 0


def test_cjr_oracle_top_of_m3_is_none():
    L = build_lattice(M3)
    assert cjr_oracle(L, L.top) is None
    assert cjr_oracle(L, L.index["a"]) == frozenset([L.index["a"]])
