"""Run one pass of a workload in a fresh interpreter and print its outcome.

Usage: python3 bench/worker.py PLAN.json TRACE SPAWN_NS

PLAN.json holds the pass's operations (see workloads.Operation).  SPAWN_NS
is the parent's ``time.time_ns()`` just before it started this process, so
``setup_s`` covers interpreter start-up and the import of the package, the
cost every ``lemspec`` command pays before its first instance.

With TRACE 0 each operation is one ``lemspec.cli.main`` call, timed alone.
With TRACE 1 each operation is replayed through the public layer calls the
command makes, each inside a span; see ``traced_operation``.

The outcome is one JSON object on stdout.  The program's own output is
captured, never printed.
"""

import sys
import time

SPAWN_NS = int(sys.argv[3])

import os  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lemspec  # noqa: E402
import lemspec.cli  # noqa: E402

SETUP_S = (time.time_ns() - SPAWN_NS) / 1e9

import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from lemspec.instances import build_ring  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    """One CLI call with stdout and stderr captured; only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = lemspec.cli.main(argv)
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "seconds": seconds,
    }


def cli_argv(op: dict) -> list[str]:
    if op["command"] == "verify":
        return ["verify", op["target"], "--format", "structured"]
    return ["validate", op["target"]]


class Tracer:
    """Spans kept in memory: name, start, end, parent span and instance."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, instance: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "instance": instance,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def timed_child(self, name: str, instance: str, seconds: float) -> None:
        """A span measured by the program itself: duration known, bounds not."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1],
                "instance": instance,
                "start": None,
                "end": None,
                "seconds": seconds,
            }
        )


def _descriptor(op: dict, tracer: Tracer):
    if op["command"] == "verify" and not op["target"].endswith(".lem"):
        return next(d for d in lemspec.catalog() if d.name == op["target"])
    text = (Path(ROOT) / op["target"]).read_text()
    with tracer.span("instances.parse", op["instance"]):
        return lemspec.parse_descriptor(text)


def traced_operation(op: dict, tracer: Tracer, counts: collections.Counter) -> dict:
    """Replay a verify or validate command through the public layer calls.

    The order follows the command: parse, build the ring and its ideals,
    build the instance, then the spectrum; verify goes on to the topologies,
    the natural map, ``run_all`` and ``serialize_report``.  ``make_lattice``
    and ``make_le_module`` are timed again on the built tables, because
    ``build_instance`` gives no split of its own time.  The module-level
    caches carry results from one call to the next, so each statement's
    ``seconds`` excludes the artifacts built here first.
    """
    name = op["instance"]
    result = {"rc": None, "stdout": "", "stderr": "", "error": None}
    with tracer.span(op["command"], name) as root:
        try:
            desc = _descriptor(op, tracer)
            with tracer.span("rings.build", name):
                ring = build_ring(desc.ring)
            with tracer.span("rings.ideals", name):
                lemspec.all_ideals(ring)
            # all_ideals caches on its ring argument, and a cache entry keyed
            # on this separately built ring would make every later lookup with
            # the instance's own (equal, not identical) ring compare the tables.
            getattr(lemspec.all_ideals, "cache_clear", lambda: None)()
            with tracer.span("instances.build", name):
                mod = lemspec.build_instance(desc)
            with tracer.span("lattices.make_lattice", name):
                lattice = lemspec.make_lattice(mod.lattice.size, mod.lattice.leq)
            with tracer.span("le_modules.make_le_module", name):
                lemspec.make_le_module(mod.ring, lattice, mod.add, mod.zero_m, mod.action)
            with tracer.span("le_modules.spectrum", name):
                subs = lemspec.submodule_elements(mod)
                points = lemspec.spectrum(mod)
            counts["rings.order"] += ring.order
            counts["lattices.size"] += mod.lattice.size
            counts["le_modules.submodule_elements"] += len(subs)
            counts["le_modules.points"] += len(points)
            if op["command"] == "verify":
                with tracer.span("spectra.topologies", name):
                    tops = lemspec.build_topologies(mod)
                with tracer.span("natural_map.build", name):
                    lemspec.build_natural_map(mod)
                with tracer.span("verify.run_all", name):
                    report = lemspec.run_all([desc])
                    for res in report.results:
                        tracer.timed_child(f"verify.{res.statement}", name, res.seconds)
                with tracer.span("verify.serialize", name):
                    text = lemspec.serialize_report(report)
                counts["spectra.closed_sets"] += len(tops.star.closed_sets)
                counts["verify.results"] += len(report.results)
                result.update(rc=3 if report.falsified() else 0, stdout=text)
        except lemspec.LemspecError as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
    result["seconds"] = root["end"] - root["start"]
    if op["command"] == "validate":
        # The checks read the command's own output; the caches are warm now.
        replay_rejected = result["error"] is not None
        result = {**run_cli(cli_argv(op)), "seconds": result["seconds"]}
        if replay_rejected != (result["rc"] == 2):
            result["error"] = "the traced replay and the command disagree on acceptance"
    return result


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    Read from /proc because ``getrusage`` keeps the parent's peak across
    fork and exec, which would report the benchmark's own memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def probe(op: dict) -> dict:
    """Untimed calls whose output states the lattice, spectrum and closed sets."""
    return {
        "validate": run_cli(["validate", op["target"]]),
        "topology": run_cli(["topology", op["target"], "--format", "structured"]),
    }


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    traced = sys.argv[2] == "1"
    ops = plan["ops"]
    tracer = Tracer()
    counts: collections.Counter = collections.Counter()
    results = []
    for op in ops:
        if traced:
            results.append(traced_operation(op, tracer, counts))
        else:
            results.append(run_cli(cli_argv(op)))
    peak = peak_rss_mb()
    for op, res in zip(ops, results):
        if op["probe"]:
            res["probe"] = probe(op)
    outcome = {"setup_s": SETUP_S, "peak_rss_mb": peak, "results": results}
    if traced:
        outcome["spans"] = tracer.spans
        outcome["counts"] = counts
    sys.stdout.write(json.dumps(outcome))


if __name__ == "__main__":
    main()
