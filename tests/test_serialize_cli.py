import contextlib
import hashlib
import io
import itertools
import json
import random
import time
import tracemalloc

import pytest

from arclat import arcs_a, arcs_b, catalog, cli, forcing, serialize, verify
from arclat.permutations import SignedPermutation, all_signed_permutations
from arclat.util import transitive_closure


def run_cli_full(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli(*argv):
    return run_cli_full(*argv)[:2]


def congruence_json(theta):
    """The wire form that serialize.congruence_from_json reads: the rank and
    the contracted arcs in arc_key order."""
    arcs = sorted(theta.contracted, key=arcs_b.arc_key)
    return {"n": theta.n, "contracted": [serialize.arc_b_to_json(a) for a in arcs]}


@pytest.mark.parametrize("n", [2, 3])
def test_arc_roundtrip(n):
    for arc in arcs_b.all_arcs(n):
        assert serialize.arc_b_from_json(serialize.arc_b_to_json(arc)) == arc
    for arc in arcs_a.all_arcs_n(n):
        assert serialize.arc_a_from_json(serialize.arc_a_to_json(arc)) == arc


@pytest.mark.parametrize("n", [2, 3])
def test_diagram_and_congruence_roundtrip(n):
    for d in arcs_b.all_diagrams(n):
        assert serialize.diagram_b_from_json(serialize.diagram_b_to_json(d)) == d
    for theta in forcing.all_congruences(n):
        back = serialize.congruence_from_json(congruence_json(theta))
        assert back.contracted == theta.contracted


@pytest.mark.parametrize("kind", ["a", "b"])
def test_empty_diagram_is_refused_in_both_types(kind):
    code, _, err = run_cli_full("map", "--type", kind, "--diagram", '{"n":0,"arcs":[]}')
    assert code == 3 and err == "error: a diagram needs at least one point, got n = 0\n"


def test_map_subcommand_b():
    code, out = run_cli("map", "--type", "b", "--perm", "[-1,2]")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 2, "arcs": [{"kind": "orbifold", "top": 1, "right": []}]}
    code, out = run_cli("map", "--type", "b", "--diagram", json.dumps(data))
    assert code == 0 and json.loads(out) == [-1, 2]


def test_map_subcommand_a():
    code, out = run_cli("map", "--type", "a", "--perm", "[1,2,3]")
    assert code == 0
    assert json.loads(out) == {"n": 3, "arcs": []}
    code, out = run_cli("map", "--type", "a", "--perm", "[3,1,2]")
    diagram = json.loads(out)
    code, out = run_cli("map", "--type", "a", "--diagram", json.dumps(diagram))
    assert json.loads(out) == [3, 1, 2]


def test_map_large_empty_diagram_is_fast():
    t0 = time.perf_counter()
    code, out = run_cli("map", "--type", "b", "--diagram", '{"n":500,"arcs":[]}')
    assert code == 0 and json.loads(out) == list(range(1, 501))
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("kind", ["a", "b"])
def test_map_roundtrip_rank_sixty(kind):
    rng = random.Random(60)
    for _ in range(5):
        word = rng.sample(range(1, 61), 60)
        if kind == "b":
            word = [v * rng.choice((1, -1)) for v in word]
        code, diagram = run_cli("map", "--type", kind, "--perm", json.dumps(word))
        assert code == 0
        code, out = run_cli("map", "--type", kind, "--diagram", diagram)
        assert code == 0 and json.loads(out) == word


def test_map_errors():
    assert run_cli("map", "--type", "b", "--perm", "[-1,2")[0] == 2
    assert run_cli("map", "--type", "b", "--perm", "[1,1]")[0] == 3
    assert run_cli("map", "--type", "b")[0] == 2


def test_quotient_subcommand():
    code, out = run_cli("quotient", "--congruence", "cambrian:R", "--n", "2", "--count")
    assert code == 0 and json.loads(out) == {"count": 6}
    code, out = run_cli("quotient", "--congruence", "parabolic:s0", "--n", "3", "--count")
    assert code == 0 and json.loads(out) == {"count": 6}
    code, out = run_cli("quotient", "--congruence", "identity", "--n", "3", "--count")
    assert code == 0 and json.loads(out) == {"count": 48}
    assert run_cli("quotient", "--congruence", "nonsense", "--n", "2", "--count")[0] == 3


def quotient_names(n):
    """identity, full, every Cambrian designation, every nonempty parabolic
    generator set and the four hom names, at rank n."""
    names = ["identity", "full"]
    names += ["cambrian:" + "".join(s) for s in itertools.product("RL", repeat=n - 1)]
    names += [
        "parabolic:" + ",".join(f"s{i}" for i in gens)
        for k in range(1, n + 1)
        for gens in itertools.combinations(range(n), k)
    ]
    return names + list(catalog.HOM_GENERATOR_WORDS)


def test_quotient_output_is_pinned():
    """One digest over the exit code and stdout of quotient --count and
    --list for every name at n = 1-4 (65 names; a hom name below its rank
    exits 3 with no output), so that a change of the quotient engine shows
    as a changed byte."""
    digest = hashlib.sha256()
    for n in range(1, 5):
        for name in quotient_names(n):
            for mode in ("--count", "--list"):
                code, out = run_cli("quotient", "--congruence", name, "--n", str(n), mode)
                digest.update(f"{name} {n} {mode} {code}\n{out}".encode())
    assert digest.hexdigest() == "bf6fd91900935c99a908d4714134f6faebead05685b321d395352821629a521e"


def test_quotient_hasse_output_is_pinned():
    """One digest over the exit code and stdout of quotient --hasse for
    every name at n = 1-4, as test_quotient_output_is_pinned, so that a
    change of how the quotient lattice is built shows as a changed byte."""
    digest = hashlib.sha256()
    for n in range(1, 5):
        for name in quotient_names(n):
            code, out = run_cli("quotient", "--congruence", name, "--n", str(n), "--hasse")
            digest.update(f"{name} {n} --hasse {code}\n{out}".encode())
    assert digest.hexdigest() == "e7b8dfd703f3950446fd38627e637765e129553c29b1eef74863069106d5a7c5"


def test_verify_reports_are_pinned():
    """One digest over the exit code and stdout of the verify suites whose
    reports print text derived from congruences: bicambrian at n = 3 and 4
    (reported failing, listing the arcs the quoted linear generators miss),
    hom, cambrian and con-a."""
    digest = hashlib.sha256()
    for suite, n in (("bicambrian", 3), ("bicambrian", 4), ("hom", 3), ("cambrian", 3), ("con-a", 2)):
        code, out = run_cli("verify", "--suite", suite, "--n", str(n))
        digest.update(f"{suite} {n} {code}\n{out}".encode())
    assert digest.hexdigest() == "ca7f30225eb7051dfee840ceeb43e41da7f209f9b84413c75950f005c2ef6117"


def test_arrow_and_oracle_output_is_pinned():
    """One digest over the exit code, stdout and stderr of every arrow list
    at n = 1-6, the refused one at n = 8, one two-arc arrows call, and the
    verify suites that read arrows, join-irreducibles or class bottoms:
    forcing-oracle at n = 1-4, forcing-closure at n = 1-6, octagon, con-a
    and cjr-quotient at n = 3."""
    orb = [json.dumps({"kind": "orbifold", "top": t, "right": []}) for t in (1, 2)]
    commands = [("arrows", "--n", str(n)) for n in (1, 2, 3, 4, 5, 6, 8)] + [("arrows", *orb)]
    suites = [("forcing-oracle", n) for n in range(1, 5)] + [("forcing-closure", n) for n in range(1, 7)]
    suites += [("octagon", 2), ("con-a", 3), ("cjr-quotient", 3)]
    commands += [("verify", "--suite", suite, "--n", str(n)) for suite, n in suites]
    digest = hashlib.sha256()
    for argv in commands:
        code, out, err = run_cli_full(*argv)
        digest.update(f"{' '.join(argv)} {code}\n{out}\n{err}".encode())
    assert digest.hexdigest() == "4894f80137aa308929cc3324a0a0dfdbd26a85c7ae3adb7c2fd91b431ab52b22"


def test_quotient_json_congruence():
    theta = catalog.parabolic_congruence(2, [0])
    text = json.dumps(congruence_json(theta))
    code, out = run_cli("quotient", "--congruence", text, "--n", "2", "--count")
    assert code == 0 and json.loads(out) == {"count": 2}
    code, _, err = run_cli_full("quotient", "--congruence", '{"n":2}', "--n", "2", "--count")
    assert code == 3 and "'contracted'" in err


def test_quotient_hasse():
    code, out = run_cli("quotient", "--congruence", "cambrian:R", "--n", "2", "--hasse")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 6
    assert len(data["covers"]) == 6  # hexagon-shaped quotient


def test_verify_subcommand():
    code, out = run_cli("verify", "--suite", "forcing-closure", "--n", "3")
    assert code == 0
    assert json.loads(out)["pass"] is True
    assert run_cli("verify", "--suite", "unknown", "--n", "3")[0] == 3


def test_verify_failure_exit_code(monkeypatch):
    from arclat import verify as verify_mod

    def failing(n):
        rep = verify_mod.Report("stub", n)
        rep.check("always fails", False, counterexample=("x",))
        return rep.done()

    monkeypatch.setitem(verify_mod.SUITES, "stub", failing)
    code, out = run_cli("verify", "--suite", "stub", "--n", "1")
    assert code == 1
    assert json.loads(out)["checks"][0]["counterexample"]


@pytest.mark.parametrize(
    "bad,code",
    [(["map", "--type", "c", "--perm", "[1]"], 2), (["map", "--type", "b", "--perm", "[1, 1]"], 3)],
)
def test_parser_is_reused_after_an_error(bad, code):
    """main keeps one parser; a call after a failed one answers as a fresh parser would."""
    assert run_cli_full(*bad)[0] == code
    good = ["quotient", "--congruence", "cambrian:RR", "--n", "3", "--list"]
    args = cli.build_parser().parse_args(good)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fresh = args.func(args)
    assert run_cli_full(*good) == (fresh, out.getvalue(), "")
    assert cli._parser() is cli._parser()


def test_enumerate_subcommand():
    code, out = run_cli("enumerate", "--what", "arcs", "--type", "b", "--n", "2")
    assert code == 0 and len(json.loads(out)) == 6
    code, out = run_cli("enumerate", "--what", "diagrams", "--n", "2")
    assert code == 0 and len(json.loads(out)) == 8
    assert run_cli("enumerate", "--what", "diagrams", "--n", "7")[0] == 3


def test_forcing_and_arrows_subcommands():
    orb1 = json.dumps({"kind": "orbifold", "top": 1, "right": []})
    orb2 = json.dumps({"kind": "orbifold", "top": 2, "right": []})
    code, out = run_cli("forcing", orb1, orb2)
    assert code == 0
    data = json.loads(out)
    assert data == {"subarc": True, "loose_subarc": True, "forces": True}
    code, out = run_cli("arrows", orb1, orb2)
    assert code == 0 and json.loads(out) == {"arrow": True}
    code, out = run_cli("arrows", "--n", "2")
    assert code == 0
    arrows = json.loads(out)["arrows"]
    arcs = arcs_b.all_arcs(2)
    count = sum(1 for a in arcs for b in arcs if forcing.has_arrow(a, b))
    assert len(arrows) == count
    closure = transitive_closure(forcing.arrow_rows(2))
    for source, target in arrows:
        i, j = (arcs.index(serialize.arc_b_from_json(arc)) for arc in (source, target))
        assert closure[i] >> j & 1


def test_shards_subcommand():
    code, out = run_cli("shards", "--type", "b", "--n", "2")
    assert code == 0
    assert len(json.loads(out)["shards"]) == 6
    assert run_cli("shards", "--type", "b", "--n", "5")[0] == 3


def test_render_subcommand():
    d = arcs_b.diagram_of_signed(SignedPermutation((-2, 1, 3)))
    text = json.dumps(serialize.diagram_b_to_json(d))
    code, out = run_cli("render", "--diagram", text, "--format", "svg")
    assert code == 0 and out.startswith("<svg")
    code2, out2 = run_cli("render", "--diagram", text, "--format", "svg")
    assert out == out2
    code, out = run_cli("render", "--diagram", text, "--format", "ascii")
    assert code == 0 and "x" in out


# Malformed inputs and ranks below 1, each with the exit code it must end with.
ERROR_CONTRACT = [
    (["map", "--type", "b", "--perm", "[]"], 3),
    (["map", "--type", "b", "--perm", "[1e400]"], 3),
    (["map", "--type", "b", "--diagram", '{"n":0,"arcs":[]}'], 3),
    (["map", "--type", "a", "--diagram", '{"n":2,"arcs":[5]}'], 3),
    (["map", "--type", "b", "--perm", "[" * 5000 + "]" * 5000], 2),
    (["quotient", "--congruence", "identity", "--n", "0", "--count"], 2),
    (["verify", "--suite", "cjr", "--n", "0"], 2),
    (["verify", "--suite", "bijections", "--n", "0"], 2),
    (["render", "--diagram", "[]"], 3),
    (["render", "--diagram", '{"n":2,"arcs":[5]}'], 3),
    (["render", "--diagram", '{"n":-3,"arcs":[]}', "--format", "ascii"], 3),
    (["forcing", "[]", "{}"], 3),
    (["enumerate", "--what", "arcs", "--n", "-1"], 2),
    (["enumerate", "--what", "diagrams", "--n", "0"], 2),
    (["arrows", "--n", "0"], 2),
    (["quotient", "--congruence", '{"n":2}', "--n", "2", "--count"], 3),
    (
        [
            "quotient",
            "--congruence",
            '{"n":2,"contracted":[{"kind":"orbifold","top":5,"right":[]}]}',
            "--n",
            "2",
            "--count",
        ],
        3,
    ),
    # Numbers that are not JSON integers are refused, not truncated.
    (["map", "--type", "b", "--perm", "[2.7,-1.2]"], 3),
    (["map", "--type", "b", "--perm", "[1.5, 2]"], 3),
    (["map", "--type", "a", "--perm", "[2.0, 1]"], 3),
    (["map", "--type", "b", "--perm", "[true]"], 3),
    (["map", "--type", "b", "--perm", '["2","1"]'], 3),
    (["map", "--type", "b", "--diagram", '{"n":2.5,"arcs":[]}'], 3),
    (["map", "--type", "a", "--diagram", '{"n":2.5,"arcs":[]}'], 3),
    (["render", "--diagram", '{"n":true,"arcs":[]}'], 3),
    (["forcing", '{"kind":"orbifold","top":1.0,"right":[]}', '{"kind":"orbifold","top":2,"right":[]}'], 3),
    (["forcing", '{"kind":"ordinary","bottom":1,"top":3,"right":[2.0]}', '{"kind":"orbifold","top":3,"right":[]}'], 3),
    (["forcing", '{"kind":"long","left":1,"right_ep":"2","L":[],"R":[]}', '{"kind":"orbifold","top":3,"right":[]}'], 3),
    (["quotient", "--congruence", '{"n":2.0,"contracted":[]}', "--n", "2", "--count"], 3),
    (["arrows", '{"kind":"orbifold","top":1,"right":[]}', "--n", "1"], 2),  # one arc of two
]

# One rank just past each scope guard (and an out-of-range generator): each
# is refused with exit 3 before the work starts.
REFUSED = [
    ["quotient", "--congruence", "identity", "--n", "7", "--count"],
    ["quotient", "--congruence", "identity", "--n", "5", "--hasse"],
    ["quotient", "--congruence", "full", "--n", "8", "--count"],
    ["quotient", "--congruence", "full", "--n", "9", "--count"],
    ["quotient", "--congruence", "parabolic:s9", "--n", "3", "--count"],
    ["arrows", "--n", "8"],
    ["enumerate", "--what", "diagrams", "--n", "6"],
    ["shards", "--type", "a", "--n", "5"],
    ["shards", "--type", "b", "--n", "4"],
    ["verify", "--suite", "con-a", "--n", "4"],
    ["verify", "--suite", "bijections", "--n", "9"],
    ["verify", "--suite", "symmetry", "--n", "5"],
    ["verify", "--suite", "octagon", "--n", "7"],
    ["verify", "--suite", "octagon", "--n", "1"],
    ["verify", "--suite", "cjr", "--n", "5"],
    ["verify", "--suite", "cjr-quotient", "--n", "5"],
    ["verify", "--suite", "forcing-oracle", "--n", "5"],
    ["verify", "--suite", "geometry", "--n", "4"],
    ["verify", "--suite", "shard-digraph", "--n", "4"],
    ["verify", "--suite", "diagram-count", "--n", "6"],
    ["verify", "--suite", "cambrian", "--n", "8"],
    ["quotient", "--congruence", "cambrian:RRRRRR", "--n", "7", "--count"],
    ["quotient", "--congruence", "identity", "--n", "6", "--hasse"],
    ["verify", "--suite", "cambrian", "--n", "6"],
    ["verify", "--suite", "forcing-closure", "--n", "7"],
    ["enumerate", "--what", "arcs", "--n", "10"],
    ["enumerate", "--what", "arcs", "--type", "a", "--n", "17"],
    ["render", "--diagram", '{"n":1001,"arcs":[]}', "--format", "ascii"],
    ["map", "--type", "a", "--perm", json.dumps(list(range(1001, 0, -1)))],
    ["map", "--type", "b", "--perm", json.dumps(list(range(-1, -1002, -1)))],
    ["map", "--type", "a", "--diagram", '{"n":1001,"arcs":[]}'],
    ["map", "--type", "b", "--diagram", '{"n":1001,"arcs":[]}'],
    ["map", "--type", "b", "--diagram", '{"n":3,"arcs":[{"kind":"ordinary","bottom":1,"top":3000000,"right":[]}]}'],
    ["map", "--type", "a", "--diagram", '{"n":3,"arcs":[{"kind":"ordinary","bottom":1,"top":3000000,"right":[]}]}'],
]


@pytest.mark.parametrize("argv,code", ERROR_CONTRACT)
def test_error_contract(argv, code):
    got, _, err = run_cli_full(*argv)
    assert got == code and "error" in err


@pytest.mark.parametrize("argv", REFUSED)
def test_refusals_are_immediate(argv):
    start = time.perf_counter()
    code, _, err = run_cli_full(*argv)
    assert code == 3 and err.startswith("error:")
    assert time.perf_counter() - start < 2


FAR = 200_000  # a point past MAX_POINTS; a point range this long takes megabytes
OVERSIZED = [
    ("a", {"n": FAR, "arcs": []}),
    ("a", {"n": 3, "arcs": [{"kind": "ordinary", "bottom": 1, "top": FAR, "right": []}]}),
    ("a", {"n": 3, "arcs": [{"kind": "ordinary", "bottom": -FAR, "top": 2, "right": []}]}),
    ("b", {"n": FAR, "arcs": []}),
    ("b", {"n": 3, "arcs": [{"kind": "ordinary", "bottom": 1, "top": FAR, "right": []}]}),
    ("b", {"n": 3, "arcs": [{"kind": "ordinary", "bottom": 1, "top": 3, "right": [FAR]}]}),
    ("b", {"n": 3, "arcs": [{"kind": "orbifold", "top": FAR, "right": []}]}),
    ("b", {"n": 3, "arcs": [{"kind": "long", "left": FAR, "right_ep": 1, "L": [], "R": []}]}),
    ("b", {"n": 3, "arcs": [{"kind": "long", "left": 2, "right_ep": 1, "L": [FAR], "R": []}]}),
]


@pytest.mark.parametrize("kind,diagram", OVERSIZED)
def test_oversized_diagram_json_is_refused_before_anything_is_built(kind, diagram):
    """A point, a side point or a rank past MAX_POINTS is refused with exit 3
    while decoding, in less memory than a point range to it would take."""
    text = json.dumps(diagram)
    run_cli_full("map", "--type", kind, "--diagram", '{"n":1,"arcs":[]}')  # builds the parser
    tracemalloc.start()
    try:
        code, _, err = run_cli_full("map", "--type", kind, "--diagram", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("error: points supported up to 1000, got ")
    assert peak < 100_000


WRONG = [[], {}, 5, None, "2", "x", True, -1, 0, 9, 1.5, float("inf"), [5], {"kind": "bogus"}]
TEMPLATES = {
    "perm": [[-2, 1, 3], [3, 1, 2], [1]],
    "arc": [serialize.arc_b_to_json(a) for a in arcs_b.all_arcs(3)],
    "diagram": [
        serialize.diagram_b_to_json(arcs_b.diagram_of_signed(SignedPermutation(w)))
        for w in ((-2, 1, 3), (3, -1, 2), (1, 2))
    ],
    "congruence": [
        congruence_json(catalog.parabolic_congruence(2, [0])),
        congruence_json(catalog.hom_congruence(2, "simion")),
    ],
}
NAMES = ["identity", "full", "cambrian:RL", "cambrian:X", "parabolic:s1", "parabolic:",
         "parabolic:sx", "simion", "nonhom", "bicambrian-linear", "nosuch", ""]
RANKS = ["-1", "0", "1", "2", "x", "1.5"]


def _mutate(value, rng):
    """Replace one node of a JSON value, chosen at random, by a wrong-shaped
    value, or drop one key of an object."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.7:
        keys = list(value) if isinstance(value, dict) else range(len(value))
        k = rng.choice(keys)
        if isinstance(value, dict) and rng.random() < 0.2:
            return {key: v for key, v in value.items() if key != k}
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[k] = _mutate(value[k], rng)
        return copy
    return rng.choice(WRONG)


def malformed_corpus(seed: int, size: int) -> list:
    """Seeded argv lists over every subcommand: JSON of the wrong shape and
    ranks at or below the edge."""
    rng = random.Random(seed)

    def bad(kind):
        return json.dumps(_mutate(rng.choice(TEMPLATES[kind]), rng))

    builders = [
        lambda: ["map", "--type", rng.choice("ab"), "--perm", bad("perm")],
        lambda: ["map", "--type", rng.choice("ab"), "--diagram", bad("diagram")],
        lambda: ["quotient", "--congruence", bad("congruence"), "--n", rng.choice(RANKS),
                 rng.choice(["--count", "--list", "--hasse"])],
        lambda: ["quotient", "--congruence", rng.choice(NAMES), "--n", rng.choice(RANKS), "--count"],
        lambda: ["verify", "--suite", rng.choice(sorted(verify.SUITES) + ["nosuch"]),
                 "--n", rng.choice(RANKS)],
        lambda: ["render", "--diagram", bad("diagram"), "--format", rng.choice(["svg", "ascii", "tikz"])],
        lambda: ["enumerate", "--what", rng.choice(["arcs", "diagrams"]), "--type", rng.choice("ab"),
                 "--n", rng.choice(RANKS)],
        lambda: ["forcing", bad("arc"), bad("arc")],
        lambda: ["arrows", bad("arc"), bad("arc")],
        lambda: ["arrows", "--n", rng.choice(RANKS)],
        lambda: ["shards", "--type", rng.choice("ab"), "--n", rng.choice(RANKS)],
    ]
    return [rng.choice(builders)() for _ in range(size)]


def test_malformed_corpus_ends_with_a_documented_code():
    codes = set()
    for argv in malformed_corpus(seed=7, size=400):
        code, _, err = run_cli_full(*argv)
        assert code in (0, 1, 2, 3), argv
        assert code in (0, 1) or "error" in err, argv
        codes.add(code)
    assert {2, 3} <= codes
