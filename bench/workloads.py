"""Seeded op lists of the four benchmark workloads.

An op is one request to arclat with an independent reference answer:
`compute()` calls the library and returns its answer, and `verify(answer)`
checks it against a closed form, a roundtrip, a second algorithm or a
documented exit code.  Ops run one after another in list order (a closed
loop with one client); later ops may read what earlier ops left in the
workload's `env` dict.  The seed only chooses inputs and their order.

Library functions are always looked up as module attributes at call time,
so the traced run can wrap them after this module is imported.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, List

from arclat import arcs_a, arcs_b, catalog, cli, forcing, geometry, lattice, permutations, serialize
from arclat.catalog import Designation
from arclat.permutations import CoxeterType, Permutation, SignedPermutation


@dataclass
class Op:
    kind: str  # op family; the trace accounts time per kind
    spec: str  # the op's input written out; the digest of all specs names the op list
    compute: Callable[[], Any]
    verify: Callable[[Any], bool]
    # Set on a request that raises at the seed commit instead of answering
    # (ROADMAP item 2): raising is then counted as a known defect, not a
    # failure.  Any other wrong answer is still a failure.
    known_defect: str = ""
    # A heavy op that runs in the first pass of a run only; the other ops
    # repeat in the later passes.  Once-ops come last in the op list, so the
    # other ops find the same state in every pass.
    once: bool = False


# ---------------------------------------------------------------------------
# Closed forms and small combinatorics, written independently of arclat.


def group_order(family: str, n: int) -> int:
    """|B_n| = 2^n n!; type A of rank n - 1 acting on n points: n!."""
    return 2**n * math.factorial(n) if family == "B" else math.factorial(n)


def words(n: int) -> List[tuple]:
    return list(itertools.permutations(range(1, n + 1)))


def signed_words(n: int) -> List[tuple]:
    return [
        tuple(s * v for s, v in zip(signs, w))
        for w in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    ]


def a_descents(w: tuple) -> int:
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def b_descents(w: tuple) -> int:
    """Type-B descents: positions 0..n-1 with w(i) > w(i+1), where w(0) = 0."""
    full = (0,) + tuple(w)
    return sum(1 for i in range(len(w)) if full[i] > full[i + 1])


def b_length(w: tuple) -> int:
    """Type-B length: inversions plus pairs i <= j with w(i) + w(j) < 0."""
    n = len(w)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    nsp = sum(1 for i in range(n) for j in range(i, n) if w[i] + w[j] < 0)
    return inv + nsp


def parabolic_order(n: int, kept: set) -> int:
    """Order of the type-B parabolic subgroup on the generators `kept`.

    Generator s0 is the special one; s_i and s_{i+1} are adjacent.  A run of
    k consecutive generators containing s0 gives B_k, any other run A_k.
    """
    order, i = 1, 0
    while i < n:
        if i not in kept:
            i += 1
            continue
        j = i
        while j + 1 < n and j + 1 in kept:
            j += 1
        k = j - i + 1
        order *= 2**k * math.factorial(k) if i == 0 else math.factorial(k + 1)
        i = j + 1
    return order


def cli_call(argv: list):
    """Run `arclat <argv>` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# oracle: definition-level lattice oracles on B4, A6 and B3.


def oracle(rng: random.Random) -> List[Op]:
    env: dict = {}

    def build(key: str, family: str, n: int) -> Op:
        def compute():
            env[key] = permutations.weak_order_lattice(CoxeterType(family, n))
            return env[key]

        return Op("build", f"weak_order_lattice {family}{n}", compute,
                  lambda W: W.n == group_order(family, n))

    def cjr(word: tuple) -> Op:
        def compute():
            W = env["B4"]
            rep = lattice.cjr_oracle(W, W.index[SignedPermutation(word)])
            return None if rep is None else {W.labels[j].word for j in rep}

        def verify(got) -> bool:
            w = SignedPermutation(word)
            greedy = {x.word for x in permutations.cjr_weak(w)}
            arcs = {arcs_b.join_irreducible_word(a, 4) for a in arcs_b.diagram_of_signed(w).arcs}
            return got is not None and len(got) == b_descents(word) and got == greedy == arcs

        return Op("cjr_b4", f"cjr {word}", compute, verify)

    def forcing_b4(j1: tuple, j2: tuple) -> Op:
        def compute():
            W = env["B4"]
            theta = lattice.principal_congruence(W, W.index[SignedPermutation(j1)])
            e2 = W.index[SignedPermutation(j2)]
            return theta.same(e2, W.covers_down[e2][0])

        def verify(got) -> bool:
            a1 = arcs_b.arc_of_join_irreducible(SignedPermutation(j1))
            a2 = arcs_b.arc_of_join_irreducible(SignedPermutation(j2))
            return got == forcing.is_subarc(a1, a2)

        return Op("principal_b4", f"principal {j1} {j2}", compute, verify)

    jis_a6 = [w for w in words(6) if a_descents(w) == 1]

    def forcing_a6(j1: tuple) -> Op:
        def compute():
            A = env["A6"]
            theta = lattice.principal_congruence(A, A.index[Permutation(j1)])
            out = []
            for j2 in jis_a6:
                e2 = A.index[Permutation(j2)]
                out.append(theta.same(e2, A.covers_down[e2][0]))
            return out

        def verify(got) -> bool:
            a1 = arcs_a.arc_of_join_irreducible(j1)
            return got == [arcs_a.is_subarc(a1, arcs_a.arc_of_join_irreducible(j2)) for j2 in jis_a6]

        return Op("principal_a6", f"principal {j1}", compute, verify)

    def quotient_b3(gens: tuple) -> Op:
        def compute():
            W = env["B3"]
            arcs = [arcs_b.arc_of_join_irreducible(SignedPermutation(g)) for g in gens]
            theta = forcing.ArcCongruence.from_generators(3, arcs)
            classes = [[W.index[pi] for pi in cls] for cls in forcing.element_partition(theta)]
            ok = lattice.cjr_quotient_check(W, lattice.Congruence.from_classes(W, classes))
            return ok, len(classes), theta

        def verify(got) -> bool:
            ok, n_classes, theta = got
            return ok and n_classes == len(forcing.quotient_elements(theta))

        return Op("cjr_quotient_b3", f"cjr_quotient {gens}", compute, verify)

    jis_b4 = [w for w in signed_words(4) if b_descents(w) == 1]
    jis_b3 = [w for w in signed_words(3) if b_descents(w) == 1]
    top = tuple(-v for v in range(1, 5))  # the longest element of B4
    body = [cjr(w) for w in signed_words(4) if w != top]
    # Every B4 and A6 join-irreducible generates once: the seed picks the
    # partner and the order, so the op list costs the same for every seed.
    body += [forcing_b4(j1, rng.choice(jis_b4)) for j1 in jis_b4]
    body += [quotient_b3((j,)) for j in jis_b3]  # every single-arc congruence
    # The top element and the A6 congruences are most of a pass; they run
    # in the first pass only, so that the other ops fit in more passes.
    heavy = [cjr(top)] + [forcing_a6(j) for j in jis_a6]
    for op in heavy:
        op.once = True
    rng.shuffle(body)
    rng.shuffle(heavy)
    return [build("B4", "B", 4), build("A6", "A", 6), build("B3", "B", 3)] + body + heavy


# ---------------------------------------------------------------------------
# geometry: exact arrangement geometry on B3 and A4.


def geometry_ops(rng: random.Random) -> List[Op]:
    ops: List[Op] = []
    for family, n in (("B", 3), ("A", 4)):
        ops += _geometry_family(rng, family, n)
    return ops


def _geometry_family(rng: random.Random, family: str, n: int) -> List[Op]:
    env: dict = {}
    tag = f"{family}{n}"
    order = group_order(family, n)
    m = n * n if family == "B" else n * (n - 1) // 2
    if family == "B":
        n_jis = sum(1 for w in signed_words(n) if b_descents(w) == 1)
    else:
        n_jis = sum(1 for w in words(n) if a_descents(w) == 1)

    def arrangement():
        arr = geometry.coxeter_arrangement(CoxeterType(family, n))
        env["arr"] = arr
        return arr.m(), len(arr.regions())

    def weak_order():
        env["W"] = permutations.weak_order_lattice(CoxeterType(family, n))
        env["iso"] = geometry.weak_order_isomorphism(env["arr"], env["W"])
        return env["W"].n, len(env["iso"])

    def shards():
        env["sh"] = geometry.shards(env["arr"])
        env["ji_of"] = {}
        return len(env["sh"])

    def word_of(i: int) -> tuple:
        return env["W"].labels[i].word

    def arc_of(i: int):
        if family == "B":
            return arcs_b.arc_of_join_irreducible(env["W"].labels[i])
        return arcs_a.arc_of_join_irreducible(word_of(i))

    def min_upper(k: int) -> Op:
        def compute():
            sh = env["sh"]
            r = geometry.min_upper_region(env["arr"], sh[k], sh)
            i = next(i for i, reg in env["iso"].items() if reg.signs == r.signs)
            env["ji_of"][k] = i
            return i

        def verify(i) -> bool:
            w = word_of(i)
            return (b_descents(w) if family == "B" else a_descents(w)) == 1

        return Op("min_upper", f"{tag} min_upper_region {k}", compute, verify)

    def arrow(k1: int, k2: int) -> Op:
        def compute():
            sh = env["sh"]
            g = geometry.shard_arrow_geometric(env["arr"], sh[k1], sh[k2])
            env.setdefault("arrows", {})[k1, k2] = g
            return g

        def verify(g) -> bool:
            # On B3, arrow_witness_check costs about five times the op it
            # checks and would make the check most of the pass; the arcs'
            # forcing relation is a second, combinatorial algorithm.  Type A
            # has no arc-side arrow test here.
            if family == "B":
                return g == forcing.has_arrow(arc_of(env["ji_of"][k1]), arc_of(env["ji_of"][k2]))
            sh = env["sh"]
            return g == geometry.arrow_witness_check(env["arr"], sh[k1], sh[k2], sh)

        return Op("arrow", f"{tag} arrow {k1} {k2}", compute, verify)

    def descriptor(k: int) -> Op:
        def compute():
            i = env["ji_of"][k]
            if family == "B":
                desc = arcs_b.shard_descriptor(arc_of(i))
            else:
                desc = arcs_a.shard_descriptor(arc_of(i))
            return geometry.descriptor_matches(env["arr"], env["sh"][k], desc, n)

        return Op("descriptor", f"{tag} descriptor {k}", compute, lambda ok: ok is True)

    def compatible(k1: int) -> Op:
        """Compatibility of one shard with every later one, as one op.

        One op per pair would put 300 sub-millisecond ops below the arrow
        ops and move op_p50_ms onto a steep stretch of their distribution.
        """
        later = range(k1 + 1, n_jis)

        def compute():
            sh = env["sh"]
            return [geometry.shards_compatible(env["arr"], sh[k1], sh[k2]) for k2 in later]

        def verify(got) -> bool:
            mod = arcs_b if family == "B" else arcs_a
            a1 = arc_of(env["ji_of"][k1])
            return got == [mod.compatible(a1, arc_of(env["ji_of"][k2])) for k2 in later]

        return Op("compatible", f"{tag} compatible {k1}", compute, verify)

    def closure():
        """Reachability in the arrow digraph recorded by the arrow ops."""
        ks = sorted(env["ji_of"])
        reach = {k: {k} for k in ks}
        for (k1, k2), g in env["arrows"].items():
            if g:
                reach[k1].add(k2)
        changed = True
        while changed:
            changed = False
            for k in ks:
                grown = set().union(*(reach[j] for j in reach[k]))
                if grown != reach[k]:
                    reach[k] = grown
                    changed = True
        return reach

    def closure_verify(reach) -> bool:
        W = env["W"]
        for k1, k2 in itertools.product(sorted(reach), repeat=2):
            if (k2 in reach[k1]) != lattice.forcing_oracle(W, env["ji_of"][k1], env["ji_of"][k2]):
                return False
        return True

    ks = range(n_jis)  # one shard per join-irreducible
    build = [
        Op("build", f"{tag} arrangement", arrangement, lambda got: got == (m, order)),
        Op("build", f"{tag} weak order", weak_order, lambda got: got == (order, order)),
        Op("build", f"{tag} shards", shards, lambda got: got == n_jis),
    ]
    uppers = [min_upper(k) for k in ks]
    body = [arrow(k1, k2) for k1, k2 in itertools.product(ks, repeat=2)]
    body += [descriptor(k) for k in ks]
    body += [compatible(k) for k in ks[:-1]]
    rng.shuffle(uppers)
    rng.shuffle(body)
    tail = [Op("closure", f"{tag} arrow closure = forcing", closure, closure_verify)] if family == "B" else []
    return build + uppers + body + tail


# ---------------------------------------------------------------------------
# quotients: the arc engine in bulk.


def quotients(rng: random.Random) -> List[Op]:
    def cambrian(n: int, sides: str) -> Op:
        def compute():
            theta = catalog.cambrian_congruence(n, Designation(tuple(sides)))
            return theta, forcing.quotient_elements(theta) if n <= 6 else None

        def verify(got) -> bool:
            theta, elems = got
            # A type-B Cambrian congruence keeps one arc per reflection: n^2.
            if len(theta.uncontracted()) != n * n:
                return False
            if elems is not None and len(elems) != math.comb(2 * n, n):
                return False
            if n > 5:
                return True  # the meet below costs 1.1 s at n = 6 and 11 s at n = 7
            acc = None
            for arc in catalog.cambrian_meet_rep(n, Designation(tuple(sides))):
                mi = forcing.meet_irreducible_congruence(n, arc)
                acc = mi if acc is None else forcing.congruence_meet(acc, mi)
            return acc.contracted == theta.contracted

        return Op("cambrian", f"cambrian {n} {sides}", compute, verify)

    def parabolic(n: int, gens: tuple) -> Op:
        def compute():
            return len(forcing.quotient_elements(catalog.parabolic_congruence(n, gens)))

        kept = set(range(n)) - set(gens)
        return Op("parabolic", f"parabolic {n} {gens}", compute, lambda c: c == parabolic_order(n, kept))

    def hom(variant: str) -> Op:
        def compute():
            return len(forcing.quotient_elements(catalog.hom_congruence(3, variant)))

        return Op("hom", f"hom 3 {variant}", compute, lambda c: c == 24)

    def generated(n: int, gens: tuple) -> Op:
        def compute():
            arcs = [arcs_b.arc_of_join_irreducible(SignedPermutation(g)) for g in gens]
            theta = forcing.ArcCongruence.from_generators(n, arcs)
            return forcing.element_partition(theta), forcing.quotient_elements(theta)

        def verify(got) -> bool:
            fibers, elems = got
            bottoms = {min(f, key=lambda pi: b_length(pi.word)) for f in fibers}
            return sum(map(len, fibers)) == group_order("B", n) and bottoms == set(elems)

        return Op("generated", f"from_generators {n} {gens}", compute, verify)

    def designations(n: int) -> List[str]:
        return ["".join(s) for s in itertools.product("RL", repeat=n - 1)]

    jis = {n: [w for w in signed_words(n) if b_descents(w) == 1] for n in (4, 5)}
    ops = [hom(v) for v in ("simion", "nonhom", "delta", "delta_mirror") for _ in range(2)]
    proper = [g for k in range(1, 4) for g in itertools.combinations(range(4), k)]
    ops += [parabolic(4, gens) for gens in proper]  # all 14 at n = 4
    # One generated congruence at n = 4 takes from 18 to 56 ms depending on
    # its generator, and the median op is one of them, so a seeded choice
    # would move op_p50_ms.  Every B4 join-irreducible generates once, and
    # the seed adds one pair.
    ops += [generated(4, (j,)) for j in jis[4]]
    ops.append(generated(4, tuple(rng.sample(jis[4], 2))))
    # The ops of 0.2 s or more run in the first pass only, so that the
    # others, among them the median op, fit in more passes.  n = 6 and 7 use
    # the linear designation: one such op is a third of the first pass and
    # its time varies by about 15 % with the designation, which a seeded
    # choice would turn into run-to-run spread.
    heavy = [cambrian(5, s) for s in rng.sample(designations(5), 3)]
    heavy += [cambrian(6, "R" * 5), cambrian(7, "R" * 6)]
    heavy.append(parabolic(5, tuple(sorted(rng.sample(range(5), rng.randint(1, 4))))))
    heavy.append(generated(5, tuple(rng.sample(jis[5], rng.randint(1, 2)))))
    for op in heavy:
        op.once = True
    rng.shuffle(ops)
    rng.shuffle(heavy)
    return ops + heavy


# ---------------------------------------------------------------------------
# requests: small independent `arclat` commands through cli.main.

# Malformed requests that already end with their documented exit code.
MALFORMED = [
    (["map", "--type", "a", "--perm", "[1,2"], 2),  # malformed JSON
    (["forcing", "{", "{}"], 2),  # malformed JSON
    (["map", "--type", "c", "--perm", "[1]"], 2),  # usage error
    (["quotient", "--congruence", "nosuch", "--n", "3", "--count"], 3),  # unknown name
    (["map", "--type", "b", "--perm", "[0,1]"], 3),  # not a signed permutation
    (["render", "--diagram", '{"n":3,"arcs":[{"kind":"bogus"}]}'], 3),  # unknown arc kind
]

# Requests that should end with exit 2 or 3 but raise a traceback at the
# seed commit (ROADMAP item 2).  They are always in the op list, counted
# apart from failures while they raise.
KNOWN_DEFECTS = [
    ["map", "--type", "b", "--perm", "[]"],
    ["quotient", "--congruence", "identity", "--n", "0", "--count"],
    ["verify", "--suite", "cjr", "--n", "0"],
]

RENDER_MARK = {"svg": "<svg", "tikz": "\\begin{tikzpicture}", "ascii": "x"}


def requests(rng: random.Random) -> List[Op]:
    env: dict = {}

    def request(kind: str, argv: Callable[[], list], spec: str, verify: Callable[[tuple], bool]) -> Op:
        return Op(kind, spec, lambda: cli_call(argv()), verify)

    def map_chain(family: str, w: tuple) -> List[Op]:
        key = (family, w, rng.random())
        t = family.lower()
        des = b_descents(w) if family == "B" else a_descents(w)

        def forward_ok(res) -> bool:
            code, out, _ = res
            if code != 0:
                return False
            d = json.loads(out)
            env[key] = out
            return d["n"] == len(w) and len(d["arcs"]) == des

        def back_ok(res) -> bool:
            code, out, _ = res
            return code == 0 and tuple(json.loads(out)) == w

        return [
            request("map", lambda: ["map", "--type", t, "--perm", json.dumps(list(w))], f"map {t} {w}", forward_ok),
            request("map_back", lambda: ["map", "--type", t, "--diagram", env[key]], f"map back {t} {w}", back_ok),
        ]

    def render_chain(w: tuple, fmt: str) -> List[Op]:
        key = ("render", w, fmt, rng.random())

        def diagram_ok(res) -> bool:
            code, out, _ = res
            env[key] = out
            return code == 0 and len(json.loads(out)["arcs"]) == b_descents(w)

        def first_ok(res) -> bool:
            code, out, _ = res
            env[key, "bytes"] = out
            return code == 0 and RENDER_MARK[fmt] in out

        def repeat_ok(res) -> bool:
            code, out, _ = res
            return code == 0 and out == env[key, "bytes"]

        argv = lambda: ["render", "--diagram", env[key], "--format", fmt]
        return [
            request("map", lambda: ["map", "--type", "b", "--perm", json.dumps(list(w))], f"map b {w}", diagram_ok),
            request("render", argv, f"render {fmt} {w}", first_ok),
            request("render_repeat", argv, f"render again {fmt} {w}", repeat_ok),
        ]

    def forcing_request(a, b) -> List[Op]:
        ja, jb = json.dumps(serialize.arc_b_to_json(a)), json.dumps(serialize.arc_b_to_json(b))

        def ok(res) -> bool:
            code, out, _ = res
            if code != 0:
                return False
            d = json.loads(out)
            sym = forcing.is_subarc_symmetric(arcs_b.unfold_phi_inv(a), arcs_b.unfold_phi_inv(b))
            return d["subarc"] == sym and d["forces"] == sym and (d["loose_subarc"] or not sym)

        return [request("forcing", lambda: ["forcing", ja, jb], f"forcing {ja} {jb}", ok)]

    def count_request(name: str, n: int, expect: int) -> List[Op]:
        def ok(res) -> bool:
            code, out, _ = res
            return code == 0 and json.loads(out) == {"count": expect}

        argv = ["quotient", "--congruence", name, "--n", str(n), "--count"]
        return [request("quotient", lambda: argv, f"quotient {name} {n}", ok)]

    def exit_request(kind: str, argv: list, codes: tuple, known_defect: str = "") -> List[Op]:
        op = request(kind, lambda: argv, f"{kind} {argv}", lambda res: res[0] in codes)
        op.known_defect = known_defect
        return [op]

    def bicambrian_request() -> List[Op]:
        # The linear biCambrian generator list is a documented discrepancy
        # (strict xfail in the tests): exactly that check reports pass: false.
        def ok(res) -> bool:
            code, out, _ = res
            failing = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
            return code == 1 and failing == ["linear: quoted generators reach the closed form"]

        argv = ["verify", "--suite", "bicambrian", "--n", "3"]
        return [request("verify", lambda: argv, "verify bicambrian 3", ok)]

    def named(n: int, choice: int):
        if choice == 0:
            return "identity", group_order("B", n)
        if choice == 1:
            return "full", 1
        if choice == 2:
            sides = "".join(rng.choice("RL") for _ in range(n - 1))
            return f"cambrian:{sides}", math.comb(2 * n, n)
        if choice == 3:
            gens = sorted(rng.sample(range(n), rng.randint(1, n)))
            kept = set(range(n)) - set(gens)
            return "parabolic:" + ",".join(f"s{g}" for g in gens), parabolic_order(n, kept)
        return rng.choice(["simion", "nonhom", "delta", "delta_mirror"]), 24

    def random_signed(n: int) -> tuple:
        w = list(range(1, n + 1))
        rng.shuffle(w)
        return tuple(v * rng.choice((1, -1)) for v in w)

    def random_word(n: int) -> tuple:
        w = list(range(1, n + 1))
        rng.shuffle(w)
        return tuple(w)

    arcs_by_n = {n: arcs_b.all_arcs(n) for n in range(2, 6)}
    chains: List[List[Op]] = []
    for _ in range(12):
        chains += [map_chain("A", random_word(n)) for n in range(3, 11)]
        chains += [map_chain("B", random_signed(n)) for n in range(2, 9)]
    # The seed picks inputs of a fixed number of requests per rank, so that
    # the share of costlier high-rank requests is the same for every seed.
    for fmt in ("ascii", "svg", "tikz"):
        chains += [render_chain(random_signed(n), fmt) for n in range(2, 8) for _ in range(2)]
    for n in range(2, 6):
        arcs = arcs_by_n[n]
        chains += [forcing_request(rng.choice(arcs), rng.choice(arcs)) for _ in range(30)]
    # A fixed mix per rank: the n = 4 counts are the slowest requests and set
    # op_tail_ms, so neither their number nor their kinds depend on the seed.
    kinds = {2: 4, 3: 5, 4: 4}  # hom variants exist only at n = 3
    for n, count in ((2, 12), (3, 12), (4, 16)):
        for k in range(count):
            name, expect = named(n, k % kinds[n])
            chains.append(count_request(name, n, expect))
    chains += [exit_request("malformed", argv, (code,)) for argv, code in MALFORMED for _ in range(2)]
    chains.append(bicambrian_request())
    chains += [exit_request("known_defect", argv, (2, 3), "ROADMAP item 2: raises instead of exiting 2 or 3")
               for argv in KNOWN_DEFECTS]
    rng.shuffle(chains)
    return [op for chain in chains for op in chain]


WORKLOADS = {
    "oracle": oracle,
    "geometry": geometry_ops,
    "quotients": quotients,
    "requests": requests,
}


def build(name: str, seed: int) -> List[Op]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
