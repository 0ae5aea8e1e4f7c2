"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error, 2 on a syntax error, and 3
when a verification run reports failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .contexts import AtomicHorn, atomic_horn, marked_horn, pp_horn, pp_marked_horn
from .errors import ExprSyntaxError, ShapeError
from .exprlang import eval_text
from .harness import LEMMAS, Bounds, SuiteConfig, run_suite
from .marked import boundary_inclusion_marked, boundary_inclusion_min
from .molecule import Molecule, is_round, poset_of
from .poset import find_iso
from .render import marked_map_to_dict, render, shape_json_bytes, to_json_bytes

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SYNTAX = 2
EXIT_VERIFY = 3


def _eval_shape(text: str):
    value = eval_text(text)
    if isinstance(value, AtomicHorn):
        return value.shape.poset.restrict_mask(value.horn)
    return value


def _eval_molecule(text: str, command: str) -> Molecule:
    value = eval_text(text)
    if not isinstance(value, Molecule):
        raise ShapeError(f"{command} needs a molecule expression")
    return value


def cmd_build(args) -> int:
    shape = _eval_shape(args.expr)
    sys.stdout.buffer.write(shape_json_bytes(shape))
    return EXIT_OK


def cmd_boundary(args) -> int:
    shape = _eval_molecule(args.expr, "boundary")
    p = shape.poset
    bd = p.boundary_mask(p.full, args.n, args.sign)
    if bd == p.full:  # n >= dim: the molecule itself
        sys.stdout.buffer.write(shape_json_bytes(shape))
    else:
        cert = {"certificate": shape.boundary_certificate(args.n, args.sign)}
        sys.stdout.buffer.write(shape_json_bytes(p, cert, carrier=bd))
    return EXIT_OK


def cmd_check(args) -> int:
    shape = eval_text(args.expr)
    if isinstance(shape, AtomicHorn):
        doc = {
            "kind": "horn",
            "atom_elements": len(shape.shape),
            "facet": shape.shape.poset.labels[shape.facet],
            "sign": shape.sign,
            "carrier_elements": shape.horn.bit_count(),
        }
    else:
        p = poset_of(shape)
        doc = {
            "kind": "molecule" if isinstance(shape, Molecule) else "poset",
            "elements": len(p),
            "dim": p.dim,
            "maximal": p.maximal_mask(p.full).bit_count(),
            "round": is_round(shape),
            "atom": isinstance(shape, Molecule) and shape.is_atom(),
        }
        if isinstance(shape, Molecule):
            doc["certificate_kind"] = shape.certificate.get("kind")
    sys.stdout.buffer.write(to_json_bytes(doc))
    return EXIT_OK


def cmd_iso(args) -> int:
    a, b = _eval_shape(args.left), _eval_shape(args.right)
    pa, pb = poset_of(a), poset_of(b)
    iso = find_iso(pa, pb)
    if iso is None:
        sys.stdout.buffer.write(to_json_bytes(None))
    else:
        pa_labels, pb_labels = pa.labels, pb.labels
        sys.stdout.buffer.write(to_json_bytes(
            {pa_labels[i]: pb_labels[j] for i, j in enumerate(iso)}
        ))
    return EXIT_OK


def cmd_horn(args) -> int:
    shape = _eval_molecule(args.expr, "horn")
    p = shape.poset
    h = atomic_horn(shape, p.id_of(args.facet))
    extra = {"facet": p.labels[h.facet], "sign": h.sign}
    if args.marking is not None:
        mh = marked_horn(h, p.encode(args.marking))
        extra["marking"] = p.sids(mh.marking)
        extra["enlarged"] = p.sids(mh.enlarged)
    sys.stdout.buffer.write(shape_json_bytes(p, extra, carrier=h.horn))
    return EXIT_OK


def cmd_pp(args) -> int:
    u = _eval_molecule(args.left, "pp")
    v = _eval_molecule(args.right, "pp")
    h = atomic_horn(u, u.poset.id_of(args.facet))
    if args.what == "horn":
        out = pp_horn(h, v, args.order)
        p = out.shape.poset
        doc = {
            "facet": p.labels[out.facet],
            "sign": out.sign,
            "carrier": p.sids(out.horn),
        }
    else:
        mh = marked_horn(h, u.poset.encode(args.marking or ()))
        gen = (boundary_inclusion_min(v) if args.family == "minbd"
               else boundary_inclusion_marked(v))
        out = pp_marked_horn(mh, gen, args.order)
        p = out.horn.shape.poset
        doc = {
            "facet": p.labels[out.horn.facet],
            "marking": p.sids(out.marking),
            "enlarged": p.sids(out.enlarged),
            "map": marked_map_to_dict(out.as_marked_map()),
        }
    sys.stdout.buffer.write(to_json_bytes(doc))
    return EXIT_OK


def verify_document(config: SuiteConfig, reports: list) -> bytes:
    """The JSON report that verify prints: the run's config and the reports."""
    bounds = config.bounds
    return to_json_bytes({
        "config": {
            "depth": bounds.depth,
            "max_dim": bounds.max_dim,
            "max_elems": bounds.max_elements,
            "seed": config.seed,
            "lemmas": list(config.lemmas),
        },
        "reports": [r.to_dict() for r in reports],
    })


def cmd_verify(args) -> int:
    lemmas = tuple(args.lemma) if args.lemma else tuple(LEMMAS)
    for lid in lemmas:
        if lid not in LEMMAS:
            print(f"unknown lemma id {lid!r}; known: {', '.join(LEMMAS)}",
                  file=sys.stderr)
            return EXIT_DOMAIN
    config = SuiteConfig(
        bounds=Bounds(depth=args.depth, max_dim=args.max_dim,
                      max_elements=args.max_elems),
        lemmas=lemmas,
        seed=args.seed,
    )
    reports = run_suite(config)
    sys.stdout.buffer.write(verify_document(config, reports))
    failed = [r for r in reports if r.status == "fail"]
    for r in reports:
        note = f" ({r.warning})" if r.warning else ""
        print(f"{r.lemma}: {r.status} [{r.instances} instances]{note}",
              file=sys.stderr)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_render(args) -> int:
    shape = _eval_shape(args.expr)
    sys.stdout.buffer.write(render(shape, args.format))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogpkit",
        description="Build and verify shapes of oriented graded posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="evaluate an expression and print its JSON")
    p.add_argument("expr")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("boundary", help="boundary of a shape")
    p.add_argument("expr")
    p.add_argument("n", type=int)
    p.add_argument("sign", choices=["-", "+"])
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("check", help="validate a shape and print a summary")
    p.add_argument("expr")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("iso", help="find an isomorphism between two shapes")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("horn", help="atomic horn of an atom at a facet")
    p.add_argument("expr")
    p.add_argument("facet")
    p.add_argument("--marking", nargs="*", default=None,
                   help="recognise as a marked horn with this marking")
    p.set_defaults(func=cmd_horn)

    p = sub.add_parser("pp", help="pushout-products of horns")
    p.add_argument("what", choices=["horn", "marked-horn"])
    p.add_argument("left", help="atom expression carrying the horn")
    p.add_argument("facet")
    p.add_argument("right", help="atom expression for the other factor")
    p.add_argument("--order", choices=["uv", "vu"], default="uv")
    p.add_argument("--marking", nargs="*", default=None)
    p.add_argument("--family", choices=["minbd", "markbd"], default="minbd")
    p.set_defaults(func=cmd_pp)

    p = sub.add_parser("verify", help="run the lemma-checking suite")
    p.add_argument("--lemma", action="append", default=None,
                   help="lemma id to run (repeatable; default all)")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--max-dim", type=int, default=4)
    p.add_argument("--max-elems", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="serialize a shape")
    p.add_argument("expr")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call; parsing leaves it
    unchanged."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
