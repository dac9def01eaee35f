import contextlib
import io
import json
import random
import time

import pytest

from arclat import arcs_a, arcs_b, catalog, cli, forcing, serialize, verify
from arclat.catalog import Designation
from arclat.permutations import SignedPermutation, all_signed_permutations


def run_cli_full(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli(*argv):
    return run_cli_full(*argv)[:2]


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
        back = serialize.congruence_from_json(serialize.congruence_to_json(theta))
        assert back.contracted == theta.contracted


def test_designation_and_ncp_roundtrip():
    d = Designation(("R", "L"))
    assert serialize.designation_from_json(serialize.designation_to_json(d)) == d
    theta = catalog.cambrian_congruence(3, d)
    for pi in forcing.quotient_elements(theta):
        part = catalog.ncp_of_diagram(arcs_b.diagram_of_signed(pi), d)
        assert serialize.ncp_from_json(serialize.ncp_to_json(part)) == part


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


def test_quotient_json_congruence():
    theta = catalog.parabolic_congruence(2, [0])
    text = json.dumps(serialize.congruence_to_json(theta))
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
    closure = forcing.arrow_closure(arcs_b.all_arcs(2))
    count = sum(
        1
        for a in arcs_b.all_arcs(2)
        for b in arcs_b.all_arcs(2)
        if forcing.has_arrow(a, b)
    )
    assert len(arrows) == count


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


WRONG = [[], {}, 5, None, "2", "x", True, -1, 0, 9, 1.5, float("inf"), [5], {"kind": "bogus"}]
TEMPLATES = {
    "perm": [[-2, 1, 3], [3, 1, 2], [1]],
    "arc": [serialize.arc_b_to_json(a) for a in arcs_b.all_arcs(3)],
    "diagram": [
        serialize.diagram_b_to_json(arcs_b.diagram_of_signed(SignedPermutation(w)))
        for w in ((-2, 1, 3), (3, -1, 2), (1, 2))
    ],
    "congruence": [
        serialize.congruence_to_json(catalog.parabolic_congruence(2, [0])),
        serialize.congruence_to_json(catalog.hom_congruence(2, "simion")),
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
