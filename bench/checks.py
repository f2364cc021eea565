"""Checks of each operation's output against facts computed apart from the program.

Every check returns a list of problems; an empty list means the output is
correct.  The expected facts come from workloads.py.
"""

from __future__ import annotations

import hashlib
import json

# The paper's statements, in the order the program reports them.
STATEMENTS = (
    "L2.1", "P3.1", "T3.5", "P4.1", "P4.2", "T4.3", "T4.5", "P5.1", "T5.3", "T5.4",
    "P6.1", "P6.2", "C6.3", "P6.4", "P6.5", "T6.6", "T7.1", "T7.2", "T7.3", "T7.4",
)


def _validate_numbers(text: str) -> dict[str, int]:
    """The counts printed by ``lemspec validate``."""
    keys = {
        "lattice size": "lattice_size",
        "submodule elements": "submodule_elements",
        "spectrum points": "points",
    }
    found = {}
    for line in text.splitlines():
        label, _, value = line.partition(": ")
        if label in keys and value.isdigit():
            found[keys[label]] = int(value)
    return found


def _compare(found: dict, facts: dict, keys) -> list[str]:
    return [
        f"{key} is {found.get(key)}, expected {facts[key]}"
        for key in keys
        if key in facts and found.get(key) != facts[key]
    ]


def _clauses(detail: str | None) -> dict[str, str]:
    return dict(part.split("=", 1) for part in (detail or "").split() if "=" in part)


def check_report(op: dict, text: str) -> list[str]:
    """A ``verify --format structured`` report for one instance."""
    try:
        report = json.loads(text)
        results = [r for r in report["results"] if r["instance"] == op["instance"]]
    except (ValueError, KeyError, TypeError):
        return ["report is not a verify report"]
    problems = []
    sids = tuple(r["statement"] for r in results)
    if sids != STATEMENTS:
        problems.append(f"results for {sids}, expected one for each of {STATEMENTS}")
    by_sid = {r["statement"]: r for r in results}
    for r in results:
        if r["verdict"] == "falsified":
            problems.append(f"{r['statement']} falsified: {r['witness']}")
    facts = op["facts"]
    if facts.get("kind") == "zn":
        t71 = by_sid.get("T7.1", {})
        clauses = _clauses(t71.get("detail"))
        if t71.get("verdict") != "verified" or not clauses or set(clauses.values()) != {"True"}:
            problems.append(f"T7.1 is not verified with every clause true: {t71.get('detail')}")
        connected = _clauses(by_sid.get("T4.5", {}).get("detail")).get("module-spectrum-connected")
        if connected != str(facts["connected"]):
            problems.append(f"T4.5 reports connected={connected}, expected {facts['connected']}")
        ideals = _clauses(by_sid.get("L2.1", {}).get("detail")).get("ideals")
        if ideals != str(facts["lattice_size"]):
            problems.append(f"L2.1 counts {ideals} ideals, expected {facts['lattice_size']}")
    if facts.get("kind") == "power" and by_sid.get("T7.2", {}).get("verdict") != "hypothesis-not-met":
        problems.append("T7.2 is not hypothesis-not-met on a module that is not a multiplication module")
    return problems


def check_probe(op: dict, probe: dict) -> list[str]:
    """Lattice, spectrum and closed-set sizes from untimed validate/topology calls."""
    problems = []
    found = _validate_numbers(probe["validate"]["stdout"])
    try:
        top = json.loads(probe["topology"]["stdout"])
        found["closed_sets"] = len(top["closed_sets"])
        if len(top["points"]) != found.get("points"):
            problems.append("validate and topology disagree on the number of points")
    except (ValueError, KeyError, TypeError):
        problems.append("topology output is not a topology report")
    keys = ("lattice_size", "submodule_elements", "points", "closed_sets")
    return problems + _compare(found, op["facts"], keys)


def check_validate(op: dict, res: dict) -> list[str]:
    facts = op["facts"]
    if facts.get("kind") == "reject":
        missing = [name for name in facts["names"] if name not in res["stderr"]]
        if missing:
            return [f"error does not name {missing}: {res['stderr'].strip()!r}"]
        return []
    found = _validate_numbers(res["stdout"])
    return _compare(found, facts, ("lattice_size", "submodule_elements", "points"))


def check_operation(op: dict, res: dict) -> list[str]:
    """Everything wrong with one operation: a raise, an unexpected exit code
    or an output that fails its checks."""
    if res.get("error"):
        return [res["error"]]
    if res["rc"] != op["expect_rc"]:
        return [f"exit code {res['rc']}, expected {op['expect_rc']}: {res['stderr'].strip()!r}"]
    if op["command"] == "verify":
        problems = check_report(op, res["stdout"])
    else:
        problems = check_validate(op, res)
    if "probe" in res:
        problems += check_probe(op, res["probe"])
    return problems


def output_digest(res: dict) -> str:
    """What must not change between passes: exit code and both streams."""
    blob = json.dumps([res.get("rc"), res.get("stdout"), res.get("stderr")])
    return hashlib.sha256(blob.encode()).hexdigest()


def check_identical(reference: list[str], digests: list[str]) -> list[int]:
    """Indices of the operations whose output differs from the first pass."""
    return [i for i, (a, b) in enumerate(zip(reference, digests)) if a != b]
