"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(--n below 1 included), 3 an invalid or unknown object (a JSON number
that is not an integer included, never truncated), or a scope the
library refuses: quotient elements n >= 7 and --hasse n >= 5 (both before
the congruence is built), congruences and arrows n >= 8, arcs n >= 10
(type a n >= 17), diagrams n >= 6, shards beyond A4/B3, weak orders
beyond A6/B4, suites bijections n >= 9, cambrian n >= 6, con-a n >= 4,
forcing-closure n >= 7, symmetry n >= 5, octagon n != 2, map and render
n >= 1001, and arc or diagram JSON naming a point past 1000 in absolute
value.  `arrows` takes two arcs (is there an arrow between them?) or
none (every arrow at --n); one arc alone is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import arcs_a, arcs_b, catalog, forcing, geometry as geo, render, serialize, verify
from .catalog import Designation
from .lattice import NotALattice
from .permutations import CoxeterType, check_signed_rank
from .util import ScopeExceeded, bits


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(2, f"malformed JSON: {exc}") from exc


def rank(text: str) -> int:
    """The argparse type of every --n: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"rank must be at least 1, got {n}")
    return n


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")  # json.dump would run the pure-Python encoder


def cmd_map(args) -> int:
    if args.perm is not None:
        word = _load_json(args.perm)
        pi = serialize.permutation_from_json(word, signed=args.type == "b")
        if args.type == "b":
            _emit(serialize.diagram_b_to_json(arcs_b.diagram_of_signed(pi)))
        else:
            _emit(serialize.diagram_a_to_json(arcs_a.diagram_of(pi.word)))
    else:
        data = _load_json(args.diagram)
        if args.type == "b":
            pi = arcs_b.signed_of_diagram(serialize.diagram_b_from_json(data))
        else:
            pi = serialize.diagram_a_from_json(data)
            pi = serialize.permutation_from_json(arcs_a.word_of(pi), signed=False)
        _emit(serialize.permutation_to_json(pi))
    return 0


def named_congruence(name: str, n: int) -> forcing.ArcCongruence:
    if name == "identity":
        return forcing.ArcCongruence.identity(n)
    if name == "full":
        return forcing.ArcCongruence.full(n)
    if name.startswith("cambrian:"):
        return catalog.cambrian_congruence(n, Designation.parse(name.split(":", 1)[1]))
    if name.startswith("parabolic:"):
        gens = [int(tok.lstrip("s")) for tok in name.split(":", 1)[1].split(",")]
        return catalog.parabolic_congruence(n, gens)
    if name in catalog.HOM_GENERATOR_WORDS:
        return catalog.hom_congruence(n, name)
    if name == "bicambrian-bipartite":
        return catalog.bicambrian_bipartite(n)
    if name == "bicambrian-linear":
        return catalog.bicambrian_linear(n)
    raise ValueError(f"unknown congruence {name!r}")


def cmd_quotient(args) -> int:
    check_signed_rank(args.n)  # every form scans the signed permutations
    if args.hasse:
        forcing.check_lattice_rank(args.n)
    if args.congruence.strip().startswith("{"):
        theta = serialize.congruence_from_json(_load_json(args.congruence))
        if theta.n != args.n:
            raise ValueError("congruence rank does not match --n")
    else:
        theta = named_congruence(args.congruence, args.n)
    if args.hasse:
        latt = forcing.quotient_lattice(theta)
        _emit({"elements": [list(w.word) for w in latt.labels], "covers": latt.covers()})
    elif args.count:
        _emit({"count": len(forcing.quotient_elements(theta))})
    else:
        _emit({"elements": sorted(list(w.word) for w in forcing.quotient_elements(theta))})
    return 0


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, args.n)
    _emit(report)
    return 0 if report["pass"] else 1


def cmd_render(args) -> int:
    diagram = serialize.diagram_b_from_json(_load_json(args.diagram))
    spec = render.RenderSpec(
        format=args.format, width=args.width, height=args.height, spacing=args.spacing
    )
    sys.stdout.write(render.render(diagram, spec))
    return 0


def cmd_enumerate(args) -> int:
    if args.what == "arcs":
        if args.type == "b":
            _emit([serialize.arc_b_to_json(a) for a in arcs_b.all_arcs(args.n)])
        else:
            _emit([serialize.arc_a_to_json(a) for a in arcs_a.all_arcs_n(args.n)])
    else:
        if args.type != "b":
            raise ValueError("diagram enumeration is only available for --type b")
        _emit([serialize.diagram_b_to_json(d) for d in arcs_b.all_diagrams(args.n)])
    return 0


def _two_arcs(args):
    a = serialize.arc_b_from_json(_load_json(args.first))
    b = serialize.arc_b_from_json(_load_json(args.second))
    return a, b


def cmd_forcing(args) -> int:
    a, b = _two_arcs(args)
    _emit(
        {
            "subarc": forcing.is_subarc(a, b),
            "loose_subarc": forcing.is_loose_subarc(a, b),
            "forces": forcing.forces(a, b),
        }
    )
    return 0


def cmd_arrows(args) -> int:
    if (args.first is None) != (args.second is None):
        raise CliError(2, "arrows takes two arcs or none")
    if args.first is not None:
        a, b = _two_arcs(args)
        _emit({"arrow": forcing.has_arrow(a, b)})
    else:
        arcs = [serialize.arc_b_to_json(a) for a in forcing._all_arcs(args.n)]
        edges = [[arcs[i], arcs[j]] for i, row in enumerate(forcing.arrow_rows(args.n)) for j in bits(row)]
        _emit({"n": args.n, "arrows": edges})
    return 0


def cmd_shards(args) -> int:
    cox = CoxeterType(args.type.upper(), args.n)
    arr = geo.coxeter_arrangement(cox)
    out = []
    for sh in geo.shards(arr):
        out.append(
            {
                "carrier": list(arr.hyperplanes[sh.carrier].normal),
                "sides": [
                    {"normal": list(arr.hyperplanes[k].normal), "sign": s}
                    for k, s in sh.sides
                ],
            }
        )
    _emit({"type": args.type, "n": args.n, "shards": out})
    return 0


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    top = argparse.ArgumentParser(prog="arclat", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="permutation <-> noncrossing arc diagram")
    p.add_argument("--type", choices=("a", "b"), required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--perm", help="permutation as a JSON array")
    g.add_argument("--diagram", help="diagram as JSON")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("quotient", help="elements, count, or covers of a quotient")
    p.add_argument("--congruence", required=True, help="name or JSON")
    p.add_argument("--n", type=rank, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--list", action="store_true")
    g.add_argument("--count", action="store_true")
    g.add_argument("--hasse", action="store_true")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", type=rank, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a diagram")
    p.add_argument("--diagram", required=True)
    p.add_argument("--format", choices=("svg", "ascii", "tikz"), default="svg")
    p.add_argument("--width", type=int, default=360)
    p.add_argument("--height", type=int, default=360)
    p.add_argument("--spacing", type=int, default=40)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("enumerate", help="list arcs or diagrams")
    p.add_argument("--what", choices=("arcs", "diagrams"), required=True)
    p.add_argument("--type", choices=("a", "b"), default="b")
    p.add_argument("--n", type=rank, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("forcing", help="subarc and forcing tests for two arcs")
    p.add_argument("first", help="arc JSON")
    p.add_argument("second", help="arc JSON")
    p.set_defaults(func=cmd_forcing)

    p = sub.add_parser("arrows", help="single forcing steps")
    p.add_argument("first", nargs="?", help="arc JSON")
    p.add_argument("second", nargs="?", help="arc JSON")
    p.add_argument("--n", type=rank, default=3)
    p.set_defaults(func=cmd_arrows)

    p = sub.add_parser("shards", help="hyperplane pieces of a reflection arrangement")
    p.add_argument("--type", choices=("a", "b"), required=True)
    p.add_argument("--n", type=rank, required=True)
    p.set_defaults(func=cmd_shards)
    return top, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


@functools.lru_cache(maxsize=None)
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top parser and its {command: subparser} map, built on the first call of main."""
    return _build_parsers()


def main(argv=None) -> int:
    """A command word goes straight to its own parser, any other argv to the top parser."""
    top, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in commands:
            args, extra = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extra:
                top.error("unrecognized arguments: %s" % " ".join(extra))
        else:
            args = top.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # InvariantError stays unmapped: it reports a bug in arclat, not bad input.
    except (CliError, ValueError, KeyError, TypeError, OverflowError, ScopeExceeded, NotALattice) as exc:
        print(f"error: missing key {exc}" if isinstance(exc, KeyError) else f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 3


if __name__ == "__main__":
    sys.exit(main())
