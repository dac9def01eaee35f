"""Named verification suites with machine-readable reports.

Each suite runs a family of exact checks at a given rank and returns a
report dict; any failing check carries a counterexample dump.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, Dict, Iterable, Optional

from . import arcs_a, arcs_b, catalog, forcing, geometry as geo, lattice as lat
from .catalog import Designation
from .permutations import (
    CoxeterType,
    SignedPermutation,
    all_signed_permutations,
    cjr_weak,
    unfold,
    weak_order_lattice,
    word_w0_conjugate,
)
from .util import ScopeExceeded, transitive_closure


def _arcs(theta: forcing.ArcCongruence) -> list:
    """The contracted arcs of theta in arc_key order, for a counterexample."""
    return sorted(theta.contracted, key=arcs_b.arc_key)


class Report:
    def __init__(self, suite: str, n: Optional[int]):
        self.data = {"suite": suite, "n": n, "pass": True, "checks": []}

    def check(self, name: str, ok: bool, counterexample=None):
        entry = {"name": name, "pass": bool(ok)}
        if not ok and counterexample is not None:
            entry["counterexample"] = repr(counterexample)
        self.data["checks"].append(entry)
        if not ok:
            self.data["pass"] = False

    def done(self) -> dict:
        return self.data


def suite_bijections(n: int) -> dict:
    if n > 8:
        raise ScopeExceeded("bijections suite supported up to n = 8")
    rep = Report("bijections", n)
    words = itertools.permutations(range(1, n + 1))
    bad = next((w for w in words if arcs_a.word_of(arcs_a.diagram_of(w)) != w), None)
    rep.check(f"plain diagram roundtrip on all {n}-words", bad is None, bad)
    if n <= 4:
        signed = all_signed_permutations(n)
        bad = next((pi for pi in signed if arcs_b.signed_of_diagram(arcs_b.diagram_of_signed(pi)) != pi), None)
        rep.check(f"signed diagram roundtrip on all of rank {n}", bad is None, bad)
    return rep.done()


def suite_diagram_count(n: int) -> dict:
    rep = Report("diagram-count", n)
    count = len(arcs_b.all_diagrams(n))
    expect = 2**n * math.factorial(n)
    rep.check(f"clique count equals group order {expect}", count == expect, count)
    return rep.done()


def suite_cjr(n: int, family: str = "B") -> dict:
    rep = Report("cjr", n)
    W = weak_order_lattice(CoxeterType(family, n))
    bad = None
    for i in range(W.n):
        w = W.labels[i]
        oracle = lat.cjr_oracle(W, i)
        if oracle is None:
            bad = (w, "no canonical representation")
            break
        greedy = {x.word for x in cjr_weak(w)}
        if greedy != {W.labels[j].word for j in oracle}:
            bad = (w, greedy)
            break
        if family == "B":
            arcs = {
                arcs_b.join_irreducible_word(a, n)
                for a in arcs_b.diagram_of_signed(w).arcs
            }
        else:
            arcs = {
                arcs_a.join_irreducible_word(a, n)
                for a in arcs_a.diagram_of(w.word).arcs
            }
        if arcs != greedy:
            bad = (w, "arc image mismatch")
            break
    rep.check("greedy = oracle = arc image on all elements", bad is None, bad)
    return rep.done()


def suite_cjr_quotient(n: int) -> dict:
    rep = Report("cjr-quotient", n)
    W = weak_order_lattice(CoxeterType("B", n))
    arcs = forcing._all_arcs(n)
    bad = None
    for arc in arcs:
        theta = forcing.ArcCongruence.from_generators(n, [arc])
        classes = [
            [W.index[pi] for pi in cls] for cls in forcing.element_partition(theta)
        ]
        if not lat.cjr_quotient_check(W, lat.Congruence.from_classes(W, classes)):
            bad = theta.contracted
            break
    rep.check(
        f"quotient preserves canonical joins (all {len(arcs)} principal congruences)",
        bad is None,
        bad,
    )
    return rep.done()


def suite_forcing_oracle(n: int) -> dict:
    rep = Report("forcing-oracle", n)
    W = weak_order_lattice(CoxeterType("B", n))
    arcs = _ji_arcs("B", W, W.jis)
    pairs = list(itertools.product(W.jis, W.jis))
    bad = next((
        (W.labels[j1], W.labels[j2]) for j1, j2 in pairs
        if lat.forcing_oracle(W, j1, j2) != forcing.is_subarc(arcs[j1], arcs[j2])
    ), None)
    rep.check(f"subarc = principal-congruence forcing ({len(pairs)} pairs)", bad is None, bad)
    return rep.done()


def suite_forcing_closure(n: int) -> dict:
    if n > 6:
        raise ScopeExceeded("forcing-closure suite supported up to n = 6")
    rep = Report("forcing-closure", n)
    table = forcing.subarc_table(n)
    bad = None
    for i, reach in enumerate(transitive_closure(forcing.arrow_rows(n))):
        diff = reach ^ table.row(i)
        if diff:
            bad = (table.arc(i), table.arc((diff & -diff).bit_length() - 1))
            break
    rep.check(f"arrow closure = subarc order ({len(table.keys)} arcs)", bad is None, bad)
    return rep.done()


@functools.lru_cache(maxsize=None)
def _shard_tables(family: str, n: int):
    arr = geo.coxeter_arrangement(CoxeterType(family, n))
    W = weak_order_lattice(CoxeterType(family, n))
    iso = geo.weak_order_isomorphism(arr, W)
    sh = geo.shards(arr)
    sign_to_idx = {iso[i].signs: i for i in iso}
    shard_of_ji = {}
    for s in sh:
        r = geo.min_upper_region(arr, s, sh)
        shard_of_ji[sign_to_idx[r.signs]] = s
    return arr, W, sh, shard_of_ji


def _ji_arcs(family: str, W, jis: Iterable[int]) -> dict:
    """The arc of each join-irreducible element id of the weak order W."""
    if family == "B":
        return {i: arcs_b.arc_of_join_irreducible(W.labels[i]) for i in jis}
    return {i: arcs_a.arc_of_join_irreducible(W.labels[i].word) for i in jis}


def suite_shard_digraph(n: int, family: str = "B") -> dict:
    rep = Report("shard-digraph", n)
    arr, W, sh, shard_of_ji = _shard_tables(family, n)
    jis = sorted(shard_of_ji)
    arcs = _ji_arcs(family, W, jis)
    arrow = {}
    bad = None
    for i, j in itertools.product(jis, jis):
        g = arrow[i, j] = geo.shard_arrow_geometric(arr, shard_of_ji[i], shard_of_ji[j])
        e = geo.arrow_witness_check(arr, shard_of_ji[i], shard_of_ji[j], sh)
        if g != e:
            bad = (W.labels[i], W.labels[j], "geometric vs witness criterion")
            break
        if family == "B" and g != forcing.has_arrow(arcs[i], arcs[j]):
            bad = (W.labels[i], W.labels[j], "geometric vs arc arrow")
            break
    rep.check("geometric = witness-shard = arc arrows", bad is None, bad)
    if bad is None:
        # closure of the digraph equals lattice forcing
        reach = transitive_closure([
            sum(1 << l for l, j in enumerate(jis) if i != j and arrow[i, j]) for i in jis
        ])
        for (k, i), (l, j) in itertools.product(enumerate(jis), enumerate(jis)):
            if bool(reach[k] >> l & 1) != lat.forcing_oracle(W, i, j):
                bad = (W.labels[i], W.labels[j])
                break
        rep.check("digraph closure = forcing", bad is None, bad)
    return rep.done()


def suite_geometry(n: int, family: str = "B") -> dict:
    rep = Report("geometry", n)
    arr, W, sh, shard_of_ji = _shard_tables(family, n)
    rep.check(
        "poset of regions matches the weak order",
        lat.is_isomorphic(geo.poset_of_regions(arr), W),
    )
    rep.check("shard count equals join-irreducible count", len(sh) == len(W.jis), len(sh))
    rep.check(
        "every join-irreducible has exactly one shard",
        set(shard_of_ji) == set(W.jis),
        sorted(shard_of_ji),
    )
    bad = None
    model = arcs_b if family == "B" else arcs_a
    arcs = _ji_arcs(family, W, shard_of_ji)
    for i, s in shard_of_ji.items():
        if not geo.descriptor_matches(arr, s, model.shard_descriptor(arcs[i]), n):
            bad = (W.labels[i], s)
            break
    rep.check("inequality descriptions equal the pieces", bad is None, bad)
    bad = None
    jis = sorted(shard_of_ji)
    for i, j in itertools.combinations(jis, 2):
        compat_geo = geo.shards_compatible(arr, shard_of_ji[i], shard_of_ji[j])
        if compat_geo != model.compatible(arcs[i], arcs[j]):
            bad = (W.labels[i], W.labels[j])
            break
    rep.check("piece compatibility equals arc compatibility", bad is None, bad)
    return rep.done()


def suite_octagon(n: int = 2) -> dict:
    if n != 2:
        raise ScopeExceeded("octagon suite is defined for n = 2 only")
    rep = Report("octagon", 2)
    W = weak_order_lattice(CoxeterType("B", 2))
    hexagon = weak_order_lattice(CoxeterType("A", 3))
    winners = []
    for cong in lat.all_congruences(W):
        classes = cong.classes()
        if len(classes) != 6:
            continue
        q = lat.quotient(W, cong)
        if lat.is_isomorphic(q, hexagon):
            winners.append(cong)
    rep.check("exactly 4 congruences give six-element quotients of hexagon shape", len(winners) == 4, len(winners))
    pairs_a = (SignedPermutation((2, -1)), SignedPermutation((-2, -1)))
    pairs_b = (SignedPermutation((-2, 1)), SignedPermutation((1, -2)))
    ok = True
    for cong in winners:
        cj = {W.labels[j] for j in lat.contracted_jis(W, cong)}
        if len(cj & set(pairs_a)) != 1 or len(cj & set(pairs_b)) != 1:
            ok = False
    rep.check("each contracts one of each generator pair", ok)
    return rep.done()


def suite_hom(n: int) -> dict:
    rep = Report("hom", n)
    for variant in ("simion", "nonhom", "delta", "delta_mirror"):
        theta = catalog.hom_congruence(n, variant)
        closed = catalog.hom_closed_form(n, variant)
        rep.check(
            f"{variant}: generated set equals closed form",
            theta.contracted == closed,
            sorted(theta.contracted ^ closed, key=arcs_b.arc_key),
        )
        if n == 3:
            q = forcing.quotient_lattice(theta)
            rep.check(f"{variant}: quotient has 24 elements", q.n == 24, q.n)
            if variant == "nonhom":
                S4 = weak_order_lattice(CoxeterType("A", 4))
                rep.check("nonhom: quotient is the rank-4 plain weak order", lat.is_isomorphic(q, S4))
    return rep.done()


def suite_cambrian(n: int) -> dict:
    if n > 5:
        raise ScopeExceeded("cambrian suite supported up to n = 5")
    rep = Report("cambrian", n)
    expect = math.comb(2 * n, n)
    designations = [
        Designation(tuple(s)) for s in itertools.product("RL", repeat=n - 1)
    ]
    elements = list(all_signed_permutations(n))
    for d in designations:
        theta = catalog.cambrian_congruence(n, d)
        members = set(forcing.quotient_elements(theta))
        rep.check(f"{d}: quotient size {expect}", len(members) == expect, len(members))
        for name, test in (
            ("pattern set equals quotient set", catalog.cambrian_pattern_test),
            ("mirrored pattern agrees", catalog.cambrian_pattern_test_312),
        ):
            pattern = {pi for pi in elements if test(pi, d)}
            rep.check(f"{d}: {name}", pattern == members)
        irreducibles = (forcing.meet_irreducible_congruence(n, arc) for arc in catalog.cambrian_meet_rep(n, d))
        acc = functools.reduce(forcing.congruence_meet, irreducibles)
        rep.check(f"{d}: meet of maximal-arc congruences", acc == theta)
        diagrams = ((pi, arcs_b.diagram_of_signed(pi)) for pi in members)
        bad = next((pi for pi, D in diagrams if catalog.diagram_of_ncp(catalog.ncp_of_diagram(D, d), d) != D), None)
        rep.check(f"{d}: block-partition roundtrip", bad is None, bad)
    return rep.done()


def suite_bicambrian(n: int) -> dict:
    """Each family's closed form against its construction (the meet of an
    opposite Cambrian pair), its quoted generators and a recomputed meet."""
    rep = Report("bicambrian", n)
    families = (
        ("bipartite", catalog.bicambrian_bipartite, catalog.bicambrian_bipartite_generated,
         "bipartite: generators reach the closed form", "bipartite: equals meet of opposite pair"),
        ("linear", catalog.bicambrian_linear, catalog.bicambrian_linear_generated,
         "linear: quoted generators reach the closed form",
         "linear: closed form equals meet of opposite pair"),
    )
    for variant, build, generated, gen_check, meet_check in families:
        closed = catalog.bicambrian_closed_form(n, variant)
        theta = build(n)
        rep.check(
            f"{variant}: closed form equals the constructed congruence",
            theta.contracted == closed,
            sorted(theta.contracted ^ closed, key=arcs_b.arc_key),
        )
        gen = generated(n)
        rep.check(gen_check, gen.contracted == closed, sorted(closed - gen.contracted, key=arcs_b.arc_key))
        d1, d2 = catalog._opposite_pair(n, variant)
        meet = forcing.congruence_meet(
            catalog.cambrian_congruence(n, d1), catalog.cambrian_congruence(n, d2)
        )
        rep.check(meet_check, meet.contracted == closed)
    return rep.done()


def suite_con_a(n: int) -> dict:
    if n > 3:
        raise ScopeExceeded("con-a suite supported up to n = 3")
    rep = Report("con-a", n)
    if n == 2:
        thetas = forcing.all_congruences(2)
    else:
        # every congruence with at most two generators, first occurrences in order
        arcs = forcing._all_arcs(n)
        gen_sets = itertools.chain(*(itertools.combinations(arcs, k) for k in (0, 1, 2)))
        thetas = [forcing.ArcCongruence.from_generators(n, gens) for gens in gen_sets]
        thetas = list(dict.fromkeys(thetas))
    elements = list(all_signed_permutations(n))
    bad = None
    for theta in thetas:
        closed = forcing.is_in_con_a(theta)
        lifted = forcing.unfolded_lift(theta)
        if lifted is None:
            bad = (_arcs(theta), "lift not symmetric")
            break
        # The projections give the same partition iff their value pairs are
        # as many as the values of each.
        proj_b = [forcing.project(pi, theta) for pi in elements]
        proj_a = [forcing.project_word(unfold(pi), lifted) for pi in elements]
        restricts = len(set(zip(proj_b, proj_a))) == len(set(proj_b)) == len(set(proj_a))
        if closed != restricts:
            bad = (_arcs(theta), closed, restricts)
            break
    rep.check(
        f"loose closure = symmetric preimage restricts ({len(thetas)} congruences)",
        bad is None,
        bad,
    )
    members = [t for t in thetas if forcing.is_in_con_a(t)]
    pairs = list(itertools.combinations(members, 2))
    if len(pairs) > 400:
        pairs = random.Random(2).sample(pairs, 400)
    ops = (("meet", forcing.congruence_meet), ("join", forcing.congruence_join))
    bad = next(((_arcs(t1), _arcs(t2), op) for t1, t2 in pairs for op, f in ops if not forcing.is_in_con_a(f(t1, t2))), None)
    rep.check(f"membership closed under meet and join ({len(pairs)} pairs)", bad is None, bad)
    if n == 3:
        rep.check("simion verdict", not forcing.is_in_con_a(catalog.hom_congruence(3, "simion")))
        rep.check("nonhom verdict", forcing.is_in_con_a(catalog.hom_congruence(3, "nonhom")))
        rep.check("delta verdict", not forcing.is_in_con_a(catalog.hom_congruence(3, "delta")))
    return rep.done()


def suite_symmetry(n: int) -> dict:
    """Half-turn equivariance of the diagram map on +/-labeled points."""
    if n > 4:
        raise ScopeExceeded("symmetry suite supported up to n = 4")
    rep = Report("symmetry", n)
    values = [v for v in range(-n, n + 1) if v != 0]
    bad = next((
        w for w in itertools.permutations(values)
        if arcs_a.diagram_of(word_w0_conjugate(w)) != arcs_a.half_turn(arcs_a.diagram_of(w))
    ), None)
    rep.check(f"conjugation by the longest element is the half turn (2n={2*n})", bad is None, bad)
    return rep.done()


SUITES: Dict[str, Callable] = {
    "bijections": suite_bijections,
    "diagram-count": suite_diagram_count,
    "cjr": suite_cjr,
    "cjr-quotient": suite_cjr_quotient,
    "forcing-oracle": suite_forcing_oracle,
    "forcing-closure": suite_forcing_closure,
    "shard-digraph": suite_shard_digraph,
    "geometry": suite_geometry,
    "octagon": suite_octagon,
    "hom": suite_hom,
    "cambrian": suite_cambrian,
    "bicambrian": suite_bicambrian,
    "con-a": suite_con_a,
    "symmetry": suite_symmetry,
}


def run_suite(name: str, n: int) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](n)
