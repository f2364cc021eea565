"""Command-line interface.

``lemspec COMMAND [ARGUMENT ...] [--OPTION VALUE ...]``.  One table,
``COMMANDS``, gives each command's handler, help line, positional argument
and options; ``parse_args`` reads a command line against it and ``usage``
writes the help from it.  Options come before or after the positional
arguments, as ``--name value`` or ``--name=value``, and only by their full
names; after ``--`` every argument is positional.  ``-h`` or ``--help``,
alone or after a command, prints the help to stdout.

Inputs name either a catalog instance or a descriptor file path.  Exit
codes: 0 success, 1 input or usage error, 2 axiom violation in the given
tables, 3 at least one statement falsified by `verify`, 4 internal error
(a bug in lemspec, not in the input).
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as json_string
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import natural_map as nmap
from . import spectra, verify
from .dot import lattice_dot, specialization_dot
from .errors import (
    AxiomViolation,
    InternalError,
    LemspecError,
    ModuleAxiomViolation,
    NotALattice,
    NotAPoset,
    ParseError,
    Unbounded,
    UsageError,
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
from .le_modules import colon_sets, spectrum, submodule_elements

_AXIOM_ERRORS = (
    AxiomViolation,
    ModuleAxiomViolation,
    NotAPoset,
    NotALattice,
    Unbounded,
    ZeroRing,
)
_INPUT_ERRORS = (OSError, ValueError)


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


def cmd_validate(input: str, out: str | None) -> int:
    desc = _resolve(input)
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
    _emit("\n".join(lines) + "\n", out)
    return 0


def _array(items: Iterable, indent: str, encode: Callable[..., str] = str) -> str:
    """A JSON array of the items, each written by ``encode`` (``str`` for
    ints and for items already encoded), laid out as ``json.dumps(...,
    indent=2)`` lays out one that starts at ``indent``."""
    inner = f",\n{indent}  ".join(map(encode, items))
    return f"[\n{indent}  {inner}\n{indent}]" if inner else "[]"


def cmd_spec(input: str, format: str, out: str | None) -> int:
    """The structured form is the bytes of ``json.dumps(..., sort_keys=True,
    indent=2)`` of these fields, written from a template."""
    mod = build_instance(_resolve(input))
    nm = nmap.build_natural_map(mod)
    ann, colons = _members(nm.annihilator_ideal), colon_sets(mod)
    # (index, label, colon ideal, image in the reduced ring) of each point
    rows = [
        (p, mod.label(p), sorted(colons[p]), None if nm.degenerate else _members(nm.image_of(p)))
        for p in spectrum(mod)
    ]
    # Order and spectrum size of R/Ann, and psi injective and onto:
    # build_natural_map raises unless the map is onto.
    reduced = (None,) * 4
    if not nm.degenerate:
        reduced = (nm.quotient.order, len(spectra.ring_space(nm.quotient).points), nm.is_injective(), True)
    if format == "structured":
        order, size, injective, onto = map(json.dumps, reduced)
        points = _array(
            (
                f"""{{
      "colon": {_array(c, '      ')},
      "image": {'null' if image is None else _array(image, '      ')},
      "index": {p},
      "label": {json_string(label)}
    }}"""
                for p, label, c, image in rows
            ),
            "  ",
        )
        text = f"""{{
  "annihilator": {_array(ann, '  ')},
  "degenerate": {json.dumps(nm.degenerate)},
  "injective": {injective},
  "instance": {json_string(mod.name)},
  "lattice_size": {mod.lattice.size},
  "points": {points},
  "quotient_order": {order},
  "ring": {{
    "name": {json_string(mod.ring.name)},
    "order": {mod.ring.order}
  }},
  "ring_spectrum_size": {size},
  "submodule_elements": {_array(map(mod.label, submodule_elements(mod)), '  ', json_string)},
  "surjective": {onto}
}}
"""
        _emit(text, out)
        return 0
    lines = [f"instance: {mod.name}", f"ring: {mod.ring.name} (order {mod.ring.order})", f"annihilator: {ann}"]
    if nm.degenerate:
        lines.append("degenerate: the annihilator is the whole ring; spectrum empty")
    for _, label, c, image in rows:
        lines.append(f"point {label}  colon {c}" + ("" if image is None else f"  image {image}"))
    if not rows:
        lines.append("spectrum: empty")
    if not nm.degenerate:
        lines.append(f"reduced ring order {reduced[0]}, spectrum size {reduced[1]}")
        lines.append(f"natural map: injective={reduced[2]} surjective={reduced[3]}")
    _emit("\n".join(lines) + "\n", out)
    return 0


def cmd_topology(input: str, which: str, format: str, out: str | None) -> int:
    """The structured form is written from a template, as ``cmd_spec``'s."""
    mod = build_instance(_resolve(input))
    tops = spectra.build_topologies(mod)
    if which == "star":
        top = tops.star
    elif which == "prime":
        top = tops.prime
    else:
        top = spectra.quasi_topology(mod)
    props = spectra.point_set_properties(top)
    points = [mod.label(p) for p in top.points]
    closed = [[mod.label(p) for p in spectra.decode(top.points, c)] for c in top.closed_sets]
    flags = {
        "t0": props.is_t0,
        "t1": props.is_t1,
        "connected": props.is_connected,
        "quasi_compact": props.is_quasi_compact,
        "spectral": props.is_spectral,
    }
    if format == "structured":
        properties = ",\n".join(f"    {json_string(k)}: {json.dumps(v)}" for k, v in sorted(flags.items()))
        text = f"""{{
  "closed_sets": {_array((_array(c, '    ', json_string) for c in closed), '  ')},
  "instance": {json_string(mod.name)},
  "note": {json_string(props.note)},
  "points": {_array(points, '  ', json_string)},
  "properties": {{
{properties}
  }},
  "which": {json_string(which)}
}}
"""
        _emit(text, out)
        return 0
    lines = [f"instance: {mod.name} ({which})", f"points: {points}", f"closed sets ({len(closed)}):"]
    lines += (f"  {c}" for c in closed)
    lines.append("properties: " + " ".join(f"{k}={v}" for k, v in flags.items()))
    lines.append(f"note: {props.note}")
    _emit("\n".join(lines) + "\n", out)
    return 0


def cmd_verify(inputs: list[str], format: str, out: str | None) -> int:
    if inputs:
        descriptors = [_resolve(text) for text in inputs]
    else:
        descriptors = list(catalog())
    report = verify.run_all(descriptors)
    if format == "structured":
        _emit(verify.serialize_report(report), out)
    else:
        _emit(verify.render_text(report), out)
    return 3 if report.falsified() else 0


def cmd_export_dot(input: str, target: str, out: str | None) -> int:
    mod = build_instance(_resolve(input))
    if target == "lattice":
        _emit(lattice_dot(mod), out)
    else:
        _emit(specialization_dot(mod), out)
    return 0


def cmd_catalog(action: str, out: str | None) -> int:
    if action == "list":
        _emit("\n".join(catalog_names()) + "\n", out)
        return 0
    raise UsageError(f"unknown catalog action '{action}'; choose from list")


class Command(NamedTuple):
    """A command: its handler, a line of help, its positional argument and
    its choice options.

    ``positional`` is the handler's keyword for the positional argument,
    which takes exactly one value, or with ``many`` zero or more, as a list.
    Each option maps to its allowed values, the first being its default.
    Every command also takes ``--out FILE``, default standard output.
    """

    handler: Callable[..., int]
    help: str
    positional: str
    positional_help: str
    options: dict[str, tuple[str, ...]]
    many: bool = False


_INPUT_HELP = "catalog name or descriptor file"
_FORMAT = ("text", "structured")

COMMANDS: dict[str, Command] = {
    "validate": Command(
        cmd_validate, "build an instance and report axioms", "input", _INPUT_HELP, {}
    ),
    "spec": Command(
        cmd_spec,
        "points, colon ideals, and the natural map",
        "input",
        _INPUT_HELP,
        {"format": _FORMAT},
    ),
    "topology": Command(
        cmd_topology,
        "closed sets and point-set properties",
        "input",
        _INPUT_HELP,
        {"which": ("star", "prime", "quasi"), "format": _FORMAT},
    ),
    "verify": Command(
        cmd_verify,
        "run the statement checks",
        "inputs",
        "catalog names or descriptor files; default: the whole catalog",
        {"format": _FORMAT},
        many=True,
    ),
    "export-dot": Command(
        cmd_export_dot,
        "emit DOT graphs",
        "input",
        _INPUT_HELP,
        {"target": ("lattice", "specialization")},
    ),
    "catalog": Command(
        cmd_catalog, "inspect the built-in instances", "action", "list: the instance names", {}
    ),
}
_HELP = ("-h", "--help")


def _rows(rows: dict[str, str]) -> list[str]:
    width = max(map(len, rows))
    return [f"  {key:<{width}}  {text}" for key, text in rows.items()]


def usage(name: str | None = None) -> str:
    """The help for ``lemspec``, or for its command ``name``."""
    if name is None:
        lines = [
            "usage: lemspec COMMAND [ARGUMENT ...] [--OPTION VALUE ...]",
            "",
            "Spectra and topologies of lattice-enriched modules.",
            "",
            "commands:",
            *_rows({key: command.help for key, command in COMMANDS.items()}),
            "",
            "Options are given as --name value or --name=value, before or after",
            "the arguments.  'lemspec COMMAND -h' lists a command's options.",
            "Exit codes: 0 success, 1 input or usage error, 2 axiom violation,",
            "3 a statement falsified by verify, 4 internal error.",
        ]
        return "\n".join(lines) + "\n"
    command = COMMANDS[name]
    positional = command.positional.upper()
    if command.many:
        positional = f"[{positional} ...]"
    options = {
        f"--{key} {{{','.join(choices)}}}": f"default: {choices[0]}"
        for key, choices in command.options.items()
    }
    options["--out FILE"] = "write the output to FILE, not to standard output"
    lines = [
        " ".join([f"usage: lemspec {name} {positional}", *(f"[{key}]" for key in options)]),
        "",
        command.help,
        "",
        *_rows({positional: command.positional_help, **options, "-h, --help": "show this help"}),
    ]
    return "\n".join(lines) + "\n"


def cmd_help(name: str | None) -> int:
    sys.stdout.write(usage(name))
    return 0


def parse_args(argv: Sequence[str]) -> tuple[Callable[..., int], dict]:
    """The handler that ``argv`` asks for and its keyword arguments.

    ``argv`` is a command and its arguments, without the program name.  A
    request for help comes back as ``cmd_help``; anything the command does
    not take raises ``UsageError``.
    """
    if not argv:
        raise UsageError(f"no command given; choose from {', '.join(COMMANDS)}")
    name = argv[0]
    if name in _HELP:
        return cmd_help, {"name": None}
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError(f"unknown command '{name}'; choose from {', '.join(COMMANDS)}")
    values = {key: choices[0] for key, choices in command.options.items()}
    values["out"] = None
    positionals = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--":
            positionals.extend(args)
        elif arg in _HELP:
            return cmd_help, {"name": name}
        elif arg.startswith("-") and arg != "-":
            flag, eq, value = arg.partition("=")
            key = flag[2:]
            if not flag.startswith("--") or key not in values:
                raise UsageError(f"unknown option '{flag}' for '{name}'")
            if not eq:
                value = next(args, None)
                if value is None:
                    raise UsageError(f"option {flag} needs a value")
            choices = command.options.get(key)
            if choices is not None and value not in choices:
                raise UsageError(f"invalid {flag} '{value}'; choose from {', '.join(choices)}")
            values[key] = value
        else:
            positionals.append(arg)
    if command.many:
        values[command.positional] = positionals
    elif not positionals:
        raise UsageError(f"'{name}' needs its {command.positional.upper()} argument")
    elif len(positionals) > 1:
        raise UsageError(f"unexpected argument '{positionals[1]}' for '{name}'")
    else:
        values[command.positional] = positionals[0]
    return command.handler, values


def main(argv: Sequence[str] | None = None) -> int:
    try:
        handler, kwargs = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(**kwargs)
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
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
