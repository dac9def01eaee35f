import ast
import functools
import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from arclat import lattice as lat
from arclat.lattice import (
    Congruence,
    NotALattice,
    build_lattice,
    cjr_oracle,
    contracted_jis,
    forcing_oracle,
    principal_congruence,
    quotient,
)
from arclat.permutations import (
    CoxeterType,
    Permutation,
    SignedPermutation,
    all_permutations,
    weak_order_lattice,
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
        if u != w and u.inversions() <= w.inversions()
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
    assert len(L.jis) == 4


def test_two_maximal_elements_rejected():
    with pytest.raises(NotALattice):
        build_lattice([("0", "a"), ("0", "b")])


def test_non_cover_edge_rejected():
    with pytest.raises(NotALattice):
        build_lattice(DIAMOND + [("0", "1")])


def test_bowtie_rejected_for_two_minimal_upper_bounds():
    """Bounded, every edge a cover, yet a and b have two minimal upper
    bounds c and d: only the join check can reject it."""
    bowtie = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
              ("c", "1"), ("d", "1")]
    with pytest.raises(NotALattice) as err:
        build_lattice(bowtie)
    assert set(err.value.args[0]) == {"a", "b"}


def test_join_irreducibles_chain_and_octagon():
    chain = build_lattice([(i, i + 1) for i in range(4)])
    assert len(chain.jis) == 4
    octagon = weak_order_lattice(CoxeterType("B", 2))
    assert len(octagon.jis) == 6


def test_cjr_oracle_basics():
    L = weak_order_lattice(CoxeterType("B", 2))
    assert cjr_oracle(L, L.bottom) == frozenset()
    for j in L.jis:
        assert cjr_oracle(L, j) == frozenset([j])
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


def test_from_classes_rejects_negative_ids():
    """-1 would index the last element's slot; it is no element."""
    W = weak_order_lattice(CoxeterType("B", 2))
    with pytest.raises(ValueError, match="classes do not partition the elements"):
        Congruence.from_classes(W, [list(range(7)), [-1]])


def test_from_classes_rejects_ids_past_the_last_element():
    W = weak_order_lattice(CoxeterType("B", 2))
    with pytest.raises(ValueError, match="classes do not partition the elements"):
        Congruence.from_classes(W, [list(range(8)), [8]])


def test_library_has_no_assert_statements():
    """Invariants raise InvariantError, so they still hold under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(lat.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_importing_the_package_loads_no_module():
    """The modules are the API: `import arclat` itself loads none of them."""
    src = str(pathlib.Path(lat.__file__).parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, arclat; print(sorted(k for k in sys.modules if k.startswith('arclat.')))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert loaded == "[]\n"


def test_lattice_imports_only_util_from_arclat():
    """The lattice oracles read only the order, so the arc layers they check
    can never leak into them."""
    tree = ast.parse(pathlib.Path(lat.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if node.level or name.startswith("arclat"):
                found.append(name)
        elif isinstance(node, ast.Import):
            found.extend(a.name for a in node.names if a.name.startswith("arclat"))
    assert set(found) <= {".util", "arclat.util"}, found


def is_congruence(L, classes):
    """Order-theoretic congruence test: interval classes, monotone projections."""
    parsed = lat._partition(L, classes)
    if parsed is None:
        return False
    class_list, class_of = parsed
    bots, tops = {}, {}
    for cid, members in enumerate(class_list):
        mask = 0
        for m in members:
            mask |= 1 << m
        bot = (mask & -mask).bit_length() - 1
        top = mask.bit_length() - 1
        if L.up[bot] & L.down[top] != mask:
            return False
        bots[cid], tops[cid] = bot, top
    for a in range(L.n):
        for b in L.covers_up[a]:
            if not L.leq(bots[class_of[a]], bots[class_of[b]]):
                return False
            if not L.leq(tops[class_of[a]], tops[class_of[b]]):
                return False
    return True


def is_congruence_algebraic(L, classes):
    """Direct algebraic congruence test, quadratic in class sizes: x = y
    forces x v z = y v z and x ^ z = y ^ z for every z."""
    parsed = lat._partition(L, classes)
    if parsed is None:
        return False
    class_list, class_of = parsed
    for members in class_list:
        for x, y in itertools.combinations(members, 2):
            for z in range(L.n):
                if class_of[L.join(x, z)] != class_of[L.join(y, z)]:
                    return False
                if class_of[L.meet(x, z)] != class_of[L.meet(y, z)]:
                    return False
    return True


def set_partitions(n):
    """Every set partition of range(n), as restricted growth strings."""
    rgs = [0] * n

    def rec(i, m):
        if i == n:
            yield list(rgs)
            return
        for c in range(m + 1):
            rgs[i] = c
            yield from rec(i + 1, max(m, c + 1))

    yield from rec(0, 0)


def congruences_by_scan(L):
    """Every congruence of a tiny lattice, by filtering all set partitions."""
    for class_of in set_partitions(L.n):
        buckets = {}
        for i, c in enumerate(class_of):
            buckets.setdefault(c, []).append(i)
        if is_congruence(L, list(buckets.values())):
            yield Congruence(L, class_of)


def congruence_by_closure(L, jis):
    """Smallest congruence contracting the given join-irreducibles, by
    union-find: whenever x = y is forced, so are x v z = y v z and
    x ^ z = y ^ z for every z."""
    parent = list(range(L.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    work = [(j, L.covers_down[j][0]) for j in jis]
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        for z in range(L.n):
            a, b = L.join(x, z), L.join(y, z)
            if a != b and find(a) != find(b):
                work.append((a, b))
            a, b = L.meet(x, z), L.meet(y, z)
            if a != b and find(a) != find(b):
                work.append((a, b))
    return Congruence(L, [find(i) for i in range(L.n)])


def test_congruence_tests_agree_on_all_partitions_of_hexagon():
    L = build_lattice(hexagon_covers())
    for class_of in set_partitions(L.n):
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
    contracted = {L.labels[x] for x in contracted_jis(L, theta)}
    assert contracted == {SignedPermutation((2, -1))}
    j2 = L.index[SignedPermutation((-2, -1))]
    theta2 = principal_congruence(L, j2)
    assert SignedPermutation((-2, -1)) in {
        L.labels[x] for x in contracted_jis(L, theta2)
    }


def test_principal_congruence_hexagon_atom_contracts_three():
    # the atom forces both of the longer join-irreducibles above it
    L = build_lattice(hexagon_covers())
    atom = L.index[Permutation((2, 1, 3))]
    theta = principal_congruence(L, atom)
    contracted = {L.labels[x].word for x in contracted_jis(L, theta)}
    assert contracted == {(2, 1, 3), (2, 3, 1), (3, 1, 2)}


def test_contracted_jis_trivial():
    L = build_lattice(hexagon_covers())
    ident = Congruence(L, list(L.elements()))
    assert contracted_jis(L, ident) == frozenset()
    full = Congruence(L, [0] * L.n)
    assert contracted_jis(L, full) == frozenset(L.jis)


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
    jis = {L.labels[j].word: j for j in L.jis}
    for j in jis.values():
        assert forcing_oracle(L, j, j)
    assert forcing_oracle(L, jis[(2, 1, 3)], jis[(3, 1, 2)])
    octagon = weak_order_lattice(CoxeterType("B", 2))
    ji2 = {octagon.labels[j]: j for j in octagon.jis}
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
    j = S4.jis[0]
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


def join_all(L, items):
    """The join of items, the bottom when there is none."""
    m = L.up[L.bottom]
    for x in items:
        m &= L.up[x]
    return (m & -m).bit_length() - 1


def cjr_by_search(L, x):
    """Canonical join representation by exhaustive search: enumerate the
    irredundant antichain join-representations of x by join-irreducibles
    and return the one whose order ideal lies in every other one's, or None."""
    if x == L.bottom:
        return frozenset()
    cands = [j for j in L.jis if L.leq(j, x)]
    suffix_join = [L.bottom] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix_join[i] = L.join(cands[i], suffix_join[i + 1])
    reps = []

    def rec(i, members, cur):
        if cur == x:
            for drop in range(len(members)):
                if join_all(L, members[:drop] + members[drop + 1:]) == x:
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
    for j in W.jis:
        check_against_search(quotient(W, principal_congruence(W, j)))


@functools.lru_cache(maxsize=None)
def random_meet_closed_lattices():
    """400 seeded random meet-closed lattices, built once per session."""
    rng = random.Random(2015)
    return tuple(
        meet_closed_lattice(rng, rng.randint(3, 6), rng.randint(2, 8)) for _ in range(400)
    )


def test_cjr_oracle_matches_search_on_random_meet_closed_lattices():
    nones = 0
    for L in random_meet_closed_lattices():
        nones += check_against_search(L)
    assert nones > 0


def test_join_and_meet_are_least_upper_and_greatest_lower_bounds():
    """join and meet read from the bitmasks agree with the bounds found from
    leq alone, on every pair of every test lattice and of its dual."""
    named = [f() for f in LATTICES.values()]
    for L in named + [dual_lattice(L) for L in named] + list(random_meet_closed_lattices()):
        for a, b in itertools.combinations_with_replacement(L.elements(), 2):
            ups = [z for z in L.elements() if L.leq(a, z) and L.leq(b, z)]
            downs = [z for z in L.elements() if L.leq(z, a) and L.leq(z, b)]
            assert [z for z in ups if all(L.leq(z, w) for w in ups)] == [L.join(a, b)]
            assert [z for z in downs if all(L.leq(w, z) for w in downs)] == [L.meet(a, b)]


def test_cjr_oracle_top_of_m3_is_none():
    L = build_lattice(M3)
    assert cjr_oracle(L, L.top) is None
    assert cjr_oracle(L, L.index["a"]) == frozenset([L.index["a"]])


REFERENCE_LATTICES = dict(
    LATTICES,
    A5=lambda: weak_order_lattice(CoxeterType("A", 5)),
    B4=lambda: weak_order_lattice(CoxeterType("B", 4)),
)


@pytest.mark.parametrize("name", sorted(REFERENCE_LATTICES))
def test_principal_congruence_matches_closure(name):
    L = REFERENCE_LATTICES[name]()
    for j in L.jis:
        expect = congruence_by_closure(L, [j])
        assert principal_congruence(L, j).class_of == expect.class_of, L.labels[j]


def test_principal_class_ids_are_the_least_member_of_each_class():
    """Over every principal congruence of B3, B4 and A4: each class id is the
    least element of its class, ids given in any other labelling come out
    the same, and all the ids match a pinned digest."""
    digest = hashlib.sha256()
    for family, n in (("B", 3), ("B", 4), ("A", 4)):
        L = weak_order_lattice(CoxeterType(family, n))
        for j in L.jis:
            class_of = principal_congruence(L, j).class_of
            least = {}
            for i, c in enumerate(class_of):
                least[c] = min(least.get(c, i), i)
            assert class_of == tuple(least[c] for c in class_of)
            assert Congruence(L, [L.n - 2 * c for c in class_of]).class_of == class_of
            digest.update(repr(class_of).encode())
    assert digest.hexdigest() == "cdcdcb7f04b9749a231704c30a477ab69ca3a16cc940a3c8e57df62e850487d1"


def test_generated_congruences_match_closure_on_random_meet_closed_lattices():
    checked = 0
    for L in random_meet_closed_lattices():
        for M in (L, dual_lattice(L)):
            jis = M.jis
            gens = itertools.chain(
                itertools.combinations(jis, 1), itertools.combinations(jis, 2)
            )
            for g in gens:
                expect = congruence_by_closure(M, g).class_of
                assert lat.congruence_generated_by(M, g).class_of == expect, (M, g)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("name", ["M3", "N5", "B2", "hexagon", "chain"])
def test_all_congruences_match_partition_scan(name):
    """all_congruences lists the congruences, and quotient accepts a set
    partition exactly when it is one.  A check that the class map is a
    join-homomorphism accepts join-congruences too, such as the M3
    partition {0, a}, {b, c, 1}: b and c share a class, but b ^ b = b and
    c ^ b = 0 do not."""
    L = {
        "hexagon": lambda: build_lattice(hexagon_covers()),
        "chain": lambda: build_lattice([(i, i + 1) for i in range(5)]),
        **LATTICES,
    }[name]()
    for M in (L, dual_lattice(L)):
        scan = set(congruences_by_scan(M))
        got = list(lat.all_congruences(M))
        assert len(got) == len(set(got))
        assert set(got) == scan
        for class_of in set_partitions(M.n):
            theta = Congruence(M, class_of)
            try:
                quotient(M, theta)
            except NotALattice:
                assert theta not in scan, class_of
            else:
                assert theta in scan, class_of
    if name == "M3":
        theta = Congruence.from_classes(L, [[L.index["0"], L.index["a"]], [L.index[x] for x in "bc1"]])
        with pytest.raises(NotALattice):
            quotient(L, theta)


def test_forcing_oracle_rejects_non_join_irreducibles():
    L = build_lattice(M3)
    with pytest.raises(ValueError):
        forcing_oracle(L, L.index["a"], L.top)
    with pytest.raises(ValueError):
        lat.congruence_generated_by(L, [L.bottom])


def joins_exist_by_all_pairs(up):
    """The join check over every pair, as FiniteLattice ran it before it
    checked only pairs with a join-irreducible.  up[i] is the up-set bitmask
    of i, with ids in a linear extension, so a pair's join, if any, is the
    lowest id among its upper bounds."""
    for a in range(len(up)):
        for b in range(a + 1, len(up)):
            m = up[a] & up[b]
            if m & ~up[(m & -m).bit_length() - 1]:
                return False
    return True


def random_bounded_poset(rng, inner, density):
    """Cover pairs and up-set bitmasks of a random bounded poset on
    0..inner+1: 0 is the bottom, inner + 1 the top, and each i < j among
    the others is drawn with probability density (then closed under
    transitivity), so ids are a linear extension."""
    m = inner + 2
    up = [1 << i for i in range(m)]
    for i in range(m - 1, -1, -1):
        for j in range(i + 1, m):
            if i == 0 or j == m - 1 or rng.random() < density:
                up[i] |= up[j]
    covers = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if up[i] >> j & 1 and not any(up[i] >> k & 1 and up[k] >> j & 1 for k in range(i + 1, j))
    ]
    return covers, up


def test_join_check_over_join_irreducibles_matches_all_pairs():
    """On seeded random bounded posets, lattices and non-lattices alike,
    FiniteLattice accepts exactly when every pair has a join."""
    rng = random.Random(12)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        covers, up = random_bounded_poset(rng, rng.randint(4, 10), rng.choice((0.3, 0.45)))
        expect = joins_exist_by_all_pairs(up)
        try:
            build_lattice(covers, range(len(up)))
        except NotALattice:
            accepted = False
        else:
            accepted = True
        assert accepted == expect, covers
        verdicts[expect] += 1
    assert min(verdicts.values()) > 300, verdicts


def test_join_check_reads_every_element_against_each_join_irreducible():
    """Every two atoms have a join (x, y or a g below both e and f), and
    the atoms are the only join-irreducibles, yet x and y have two minimal
    upper bounds e and f.  Only a pair (a, j) with a not join-irreducible,
    such as (x, r), shows it."""
    atoms = "pqrs"
    joins = {"x": "pq", "y": "rs", "gpr": "pr", "gps": "ps", "gqr": "qr", "gqs": "qs"}
    covers = [("0", a) for a in atoms]
    covers += [(a, g) for g, pair in joins.items() for a in pair]
    covers += [(g, t) for g in joins for t in "ef"]
    covers += [("e", "1"), ("f", "1")]
    with pytest.raises(NotALattice):
        build_lattice(covers)


def test_join_irreducibles_are_kept_on_the_lattice():
    for L in [f() for f in LATTICES.values()] + list(random_meet_closed_lattices()[:50]):
        expect = [i for i in L.elements() if len(L.covers_down[i]) == 1]
        assert list(L.jis) == expect
        assert L.ji_mask == sum(1 << j for j in expect)


def test_quotient_rejects_a_class_map_that_is_not_a_homomorphism():
    """Merging the two atoms of the hexagon: the class bottoms form a
    lattice (N5) in which each pair joins as in the hexagon, but the other
    atom joins the merged class's bottom to the top, and the class map
    sends that join to the merged class."""
    L = build_lattice(hexagon_covers())
    atoms = [i for i in L.elements() if L.covers_down[i] == [L.bottom]]
    theta = Congruence.from_classes(L, [atoms] + [[i] for i in L.elements() if i not in atoms])
    with pytest.raises(NotALattice):
        quotient(L, theta)


def test_cjr_oracle_memo_returns_what_a_fresh_lattice_computes():
    for name in ("B3", "A4", "N5"):
        L = LATTICES[name]()
        first = [cjr_oracle(L, x) for x in L.elements()]
        assert [cjr_oracle(L, x) for x in L.elements()] == first
        assert all(L._cjr[x] is first[x] for x in L.elements())
        fresh = build_lattice([(L.labels[a], L.labels[b]) for a, b in L.covers()], L.labels)
        assert fresh._cjr == {}
        for x in L.elements():
            got = cjr_oracle(fresh, fresh.index[L.labels[x]])
            as_labels = None if got is None else {fresh.labels[j] for j in got}
            assert as_labels == (None if first[x] is None else {L.labels[j] for j in first[x]})


def quotient_by_label_pairs(L, theta):
    """The quotient's order as lattice.quotient first built it: a fresh
    FiniteLattice from cover pairs of the class bottoms' labels.  It checks
    only that the class bottoms form a lattice under L's order, not that
    theta is a congruence."""
    bottoms = sorted(set(theta.class_of))
    mask_all = sum(1 << b for b in bottoms)
    covers = []
    for b in bottoms:
        lower = L.down[b] & mask_all & ~(1 << b)
        while lower:
            c = lower.bit_length() - 1
            covers.append((L.labels[c], L.labels[b]))
            lower &= ~L.down[c]
    return build_lattice(covers, [L.labels[b] for b in bottoms])


def by_label(q):
    """Elements, covers and join-irreducibles of q, as sets of labels."""
    return (
        set(q.labels),
        {(q.labels[a], q.labels[b]) for a, b in q.covers()},
        {q.labels[j] for j in q.jis},
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_matches_the_label_pair_build(n):
    """Every congruence of B2 and every single-generator congruence of B3
    and B4."""
    W = weak_order_lattice(CoxeterType("B", n))
    thetas = lat.all_congruences(W) if n == 2 else (principal_congruence(W, j) for j in W.jis)
    count = 0
    for theta in thetas:
        assert by_label(quotient(W, theta)) == by_label(quotient_by_label_pairs(W, theta))
        count += 1
    assert count == {2: 19, 3: 23, 4: 76}[n]


def test_quotient_of_a_random_partition_is_rejected_or_matches_every_check():
    """Seeded random partitions of the random meet-closed lattices, most of
    them no congruence.  quotient accepts only congruences and builds the
    covers of the class bottoms by its own rule, so each partition it
    accepts must give what the label-pair build, which finds the covers by
    the order of L and checks the joins, gives.  All three outcomes occur:
    accepted with more than one class and fewer than all, rejected while
    the bottoms form a lattice, and rejected because they do not."""
    rng = random.Random(16)
    outcomes = {"accepted": 0, "bottoms a lattice": 0, "bottoms no lattice": 0}
    for L in random_meet_closed_lattices():
        for _ in range(20):
            k = rng.randint(1, L.n)
            theta = Congruence(L, [rng.randrange(k) for _ in range(L.n)])
            try:
                expect = by_label(quotient_by_label_pairs(L, theta))
            except NotALattice:
                expect = None
            try:
                q = quotient(L, theta)
            except NotALattice:
                outcomes["bottoms a lattice" if expect else "bottoms no lattice"] += 1
                continue
            assert by_label(q) == expect, (L.labels, theta.class_of)
            outcomes["accepted"] += 1 < q.n < L.n
    assert min(outcomes.values()) > 100, outcomes
