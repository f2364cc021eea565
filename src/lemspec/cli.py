"""Command-line interface.

Inputs name either a catalog instance or a descriptor file path.  Exit
codes: 0 success, 1 input or usage error, 2 axiom violation in the given
tables, 3 at least one statement falsified by `verify`, 4 internal error
(a bug in lemspec, not in the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import natural_map as nmap
from . import spectra, verify
from .dot import lattice_dot, specialization_dot
from .errors import (
    AxiomViolation,
    EmptyFamily,
    EmptySpectrum,
    ImproperIdeal,
    InternalError,
    LemspecError,
    ModuleAxiomViolation,
    NotALattice,
    NotAPoset,
    NotPrimeIdeal,
    NotTopLeModule,
    ParseError,
    Unbounded,
    ZeroRing,
)
from .instances import (
    InstanceDescriptor,
    build_instance,
    catalog,
    catalog_names,
    find_descriptor,
    parse_descriptor,
)
from .le_modules import LeModuleInstance, colon, spectrum, submodule_elements

_AXIOM_ERRORS = (
    AxiomViolation,
    ModuleAxiomViolation,
    NotAPoset,
    NotALattice,
    Unbounded,
    ZeroRing,
)
_INPUT_ERRORS = (
    ParseError,
    NotTopLeModule,
    EmptyFamily,
    EmptySpectrum,
    ImproperIdeal,
    NotPrimeIdeal,
    OSError,
    ValueError,
)


def _resolve(text: str) -> InstanceDescriptor:
    desc = find_descriptor(text)
    if desc is not None:
        return desc
    path = Path(text)
    if not path.exists():
        raise ParseError(f"'{text}' is neither a catalog name nor a file")
    return parse_descriptor(path.read_text())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _members(ideal) -> list[int]:
    return list(ideal.sorted_members())


def cmd_validate(args: argparse.Namespace) -> int:
    desc = _resolve(args.input)
    mod = build_instance(desc)
    subs = submodule_elements(mod)
    points = spectrum(mod)
    lines = [
        f"instance: {mod.name}",
        f"ring: {mod.ring.name} (order {mod.ring.order})",
        f"lattice size: {mod.lattice.size}",
        f"submodule elements: {len(subs)}",
        f"spectrum points: {len(points)}",
        "valid: all le-module axioms hold",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _spec_payload(mod: LeModuleInstance) -> dict:
    nm = nmap.build_natural_map(mod)
    points = []
    for p in spectrum(mod):
        row = {
            "index": p,
            "label": mod.label(p),
            "colon": _members(colon(mod, p)),
            "image": None if nm.degenerate else _members(nm.image_of(p)),
        }
        points.append(row)
    payload = {
        "instance": mod.name,
        "ring": {"name": mod.ring.name, "order": mod.ring.order},
        "lattice_size": mod.lattice.size,
        "submodule_elements": [mod.label(n) for n in submodule_elements(mod)],
        "annihilator": _members(nm.annihilator_ideal),
        "degenerate": nm.degenerate,
        "points": points,
        "quotient_order": None if nm.degenerate else nm.quotient.order,
        "ring_spectrum_size": None
        if nm.degenerate
        else len(spectra.ring_space(nm.quotient).points),
        "injective": None if nm.degenerate else nm.is_injective(),
        "surjective": None if nm.degenerate else nm.is_surjective(),
    }
    return payload


def _spec_text(payload: dict) -> str:
    lines = [
        f"instance: {payload['instance']}",
        f"ring: {payload['ring']['name']} (order {payload['ring']['order']})",
        f"annihilator: {payload['annihilator']}",
    ]
    if payload["degenerate"]:
        lines.append("degenerate: the annihilator is the whole ring; spectrum empty")
    for row in payload["points"]:
        image = "" if row["image"] is None else f"  image {row['image']}"
        lines.append(f"point {row['label']}  colon {row['colon']}{image}")
    if not payload["points"]:
        lines.append("spectrum: empty")
    if not payload["degenerate"]:
        lines.append(
            f"reduced ring order {payload['quotient_order']}, "
            f"spectrum size {payload['ring_spectrum_size']}"
        )
        lines.append(
            f"natural map: injective={payload['injective']} "
            f"surjective={payload['surjective']}"
        )
    return "\n".join(lines) + "\n"


def cmd_spec(args: argparse.Namespace) -> int:
    mod = build_instance(_resolve(args.input))
    payload = _spec_payload(mod)
    if args.format == "structured":
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(_spec_text(payload), args.out)
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    mod = build_instance(_resolve(args.input))
    tops = spectra.build_topologies(mod)
    if args.which == "star":
        top = tops.star
    elif args.which == "prime":
        top = tops.prime
    else:
        if tops.quasi is None:
            raise NotTopLeModule(
                f"{mod.name}: the plain variety family is not a topology"
            )
        top = tops.quasi
    props = spectra.point_set_properties(top)
    payload = {
        "instance": mod.name,
        "which": args.which,
        "points": [mod.label(p) for p in top.points],
        "closed_sets": [
            [mod.label(p) for p in sorted(c)] for c in top.closed_sets
        ],
        "properties": {
            "t0": props.is_t0,
            "t1": props.is_t1,
            "connected": props.is_connected,
            "quasi_compact": props.is_quasi_compact,
            "spectral": props.is_spectral,
        },
        "note": props.note,
    }
    if args.format == "structured":
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    lines = [
        f"instance: {payload['instance']} ({args.which})",
        f"points: {payload['points']}",
        f"closed sets ({len(payload['closed_sets'])}):",
    ]
    for c in payload["closed_sets"]:
        lines.append(f"  {c}")
    lines.append(
        "properties: "
        + " ".join(f"{k}={v}" for k, v in payload["properties"].items())
    )
    lines.append(f"note: {payload['note']}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.inputs:
        descriptors = [_resolve(text) for text in args.inputs]
    else:
        descriptors = list(catalog())
    report = verify.run_all(descriptors)
    if args.format == "structured":
        _emit(verify.serialize_report(report), args.out)
    else:
        _emit(verify.render_text(report), args.out)
    return 3 if report.falsified() else 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    mod = build_instance(_resolve(args.input))
    if args.target == "lattice":
        _emit(lattice_dot(mod), args.out)
    else:
        _emit(specialization_dot(mod), args.out)
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        _emit("\n".join(catalog_names()) + "\n", args.out)
        return 0
    raise ParseError(f"unknown catalog action '{args.action}'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemspec",
        description="Spectra and topologies of lattice-enriched modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="build an instance and report axioms")
    p.add_argument("input", help="catalog name or descriptor file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spec", help="points, colon ideals, and the natural map")
    p.add_argument("input")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spec)

    p = sub.add_parser("topology", help="closed sets and point-set properties")
    p.add_argument("input")
    p.add_argument("--which", choices=("star", "prime", "quasi"), default="star")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("verify", help="run the statement checks")
    p.add_argument("inputs", nargs="*", help="default: the whole catalog")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-dot", help="emit DOT graphs")
    p.add_argument("input")
    p.add_argument(
        "--target", choices=("lattice", "specialization"), default="lattice"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("catalog", help="inspect the built-in instances")
    p.add_argument("action", choices=("list",))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except _AXIOM_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LemspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
