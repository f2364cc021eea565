"""Graphviz DOT rendering for lattices and specialization preorders."""

from __future__ import annotations

from .le_modules import LeModuleInstance, spectrum
from .spectra import build_topologies, specialization_pairs


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def lattice_dot(mod: LeModuleInstance) -> str:
    """Hasse diagram of the underlying lattice, bottom at the base."""
    lines = [f"digraph {_quote(mod.name + '-lattice')} {{", "  rankdir=BT;"]
    for i in range(mod.lattice.size):
        lines.append(f"  n{i} [label={_quote(mod.label(i))}];")
    for a, b in mod.lattice.covers():
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def specialization_dot(mod: LeModuleInstance) -> str:
    """Points of the spectrum; an edge p -> q when q specializes p."""
    points = spectrum(mod)
    top = build_topologies(mod).star
    lines = [f"digraph {_quote(mod.name + '-specialization')} {{"]
    for p in points:
        lines.append(f"  p{p} [label={_quote(mod.label(p))}];")
    for p, q in specialization_pairs(top):
        lines.append(f"  p{p} -> p{q};")
    lines.append("}")
    return "\n".join(lines) + "\n"
