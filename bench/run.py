"""Benchmark for ``lemspec verify`` and ``lemspec validate``.

Run from the root of a checkout:

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

One run writes the workload's descriptor files under ``bench/out/``, then
runs whole passes until ``--seconds`` have gone by.  Each pass runs every
operation of the workload once, in a fresh worker interpreter (one at a
time), and every output is checked.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, each metric
the median over the run's passes.  ``--trace 0`` gives the end-to-end
metrics and ``--trace 1`` the per-layer ones.  All times are scaled to a
fixed machine speed, measured around every pass with ``reference_seconds``;
the unscaled figures are printed above the JSON line.

``--steadiness N`` runs every workload (or those named with ``--workload``)
N times with seeds 1..N and prints each metric's median and quartile
spread.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
PASS_TIMEOUT_S = 120
# Times are reported at the machine speed at which reference_seconds()
# takes this long; see "Machine speed" in bench/README.md.
REFERENCE_S = 0.008

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_SPANS = (
    "instances.parse",
    "rings.build",
    "rings.ideals",
    "instances.build",
    "lattices.make_lattice",
    "le_modules.make_le_module",
    "le_modules.spectrum",
    "spectra.topologies",
    "natural_map.build",
    "verify.run_all",
    *(f"verify.{sid}" for sid in checks.STATEMENTS),
    "verify.serialize",
)
LAYER_COUNTS = (
    "rings.order",
    "lattices.size",
    "le_modules.points",
    "le_modules.submodule_elements",
    "spectra.closed_sets",
    "verify.results",
)
PER_LAYER = {
    "trace.wall_s": "s",
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **dict.fromkeys(LAYER_COUNTS, "count"),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def reference_seconds() -> float:
    """Time of a fixed workload of tuple hashing, dict and frozenset operations.

    It exercises the interpreter the way lemspec does, so its time tracks
    the machine's current speed.  The collector is off while it runs.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        table = {(i % 97, i % 89, i): frozenset((i % 7, i % 11, i % 13)) for i in range(10_000)}
        universe = frozenset(range(16))
        sum(1 for key, value in table.items() if key in table and value <= universe)
        return time.perf_counter() - started
    finally:
        gc.enable()


def run_pass(plan_path: Path, traced: bool) -> dict:
    spawn_ns = time.time_ns()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(plan_path), str(int(traced)), str(spawn_ns)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: duration minus the part its child spans cover, summed."""
    duration = {
        s["id"]: s["seconds"] if s["start"] is None else s["end"] - s["start"] for s in spans
    }
    own = dict(duration)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration[s["id"]]
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    totals["trace.wall"] = sum(duration[s["id"]] for s in spans if s["parent"] is None)
    return totals


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run: whole passes for ``seconds``; returns the result object."""
    if not (ROOT / "src" / "lemspec" / "__init__.py").is_file():
        raise BenchError(f"no lemspec sources under {ROOT / 'src'}")
    outdir = OUT / f"{workload}-{seed}"
    ops = [op.to_dict() for op in workloads.make_plan(workload, seed, outdir, ROOT)]
    plan_path = outdir / "plan.json"
    plan_path.write_text(json.dumps({"ops": ops}))

    passes = []
    first_digests = None
    failed = 0
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        before = [reference_seconds() for _ in range(3)]
        outcome = run_pass(plan_path, traced)
        outcome["reference_s"] = statistics.median(before + [reference_seconds() for _ in range(3)])
        outcome["speed"] = REFERENCE_S / outcome["reference_s"]
        digests = [checks.output_digest(res) for res in outcome["results"]]
        first_digests = first_digests or digests
        changed = set(checks.check_identical(first_digests, digests))
        for i, (op, res) in enumerate(zip(ops, outcome["results"])):
            problems = checks.check_operation(op, res)
            if i in changed:
                problems.append("output differs from the first pass")
            if problems:
                failed += 1
                print(f"pass {len(passes)}: {op['instance']}: {'; '.join(problems)}", file=sys.stderr)
        outcome["wall_s"] = sum(res["seconds"] for res in outcome.pop("results"))
        passes.append(outcome)

    if traced:
        sums = []
        for p in passes:
            own = self_times(p["spans"])
            sums.append({f"{name}_s": own.get(name, 0.0) * p["speed"] for name in ("trace.wall", *LAYER_SPANS)})
            sums[-1].update({name: p["counts"].get(name, 0) for name in LAYER_COUNTS})
        values = {name: statistics.median(s[name] for s in sums) for name in PER_LAYER}
        units = PER_LAYER
        trace_path = outdir / "trace.jsonl"
        with trace_path.open("w") as fh:
            for k, p in enumerate(passes):
                for s in p["spans"]:
                    fh.write(json.dumps({"pass": k, **s}) + "\n")
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] * p["speed"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END
    with (outdir / f"passes-trace{int(traced)}.jsonl").open("w") as fh:
        for p in passes:
            raw = {key: p[key] for key in ("wall_s", "setup_s", "peak_rss_mb", "reference_s", "speed") if key in p}
            fh.write(json.dumps(raw) + "\n")
    raw = {key: statistics.median(p[key] for p in passes) for key in ("wall_s", "setup_s", "reference_s")}
    return {
        "correct": failed == 0,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "passes": len(passes),
        "raw": raw,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def steadiness(names: list[str], runs: int, seconds: float, traced: bool) -> None:
    """Print, per workload and metric, the median and quartile spread over runs."""
    for workload in names:
        results = []
        for seed in range(1, runs + 1):
            results.append(run(workload, seed, seconds, traced))
            print(f"{workload} seed {seed}: {results[-1]['passes']} passes", file=sys.stderr)
        print(f"{workload}: {runs} runs of {seconds:g} s, "
              f"passes {min(r['passes'] for r in results)}-{max(r['passes'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)}")
        rows = [(m, meta["unit"], [r["metrics"][m]["value"] for r in results]) for m, meta in results[0]["metrics"].items()]
        rows += [(f"unscaled {key}", "s", [r["raw"][key] for r in results]) for key in results[0]["raw"]]
        for metric, unit, vals in rows:
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if runs > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {metric:34} median {med:12.6g} {unit:5} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    args = parser.parse_args()
    try:
        if args.steadiness:
            steadiness(args.workload or list(workloads.WORKLOADS), args.steadiness, args.seconds, bool(args.trace))
            return 0
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload")
        result = run(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"passes: {result.pop('passes')}")
    for name, value in result.pop("raw").items():
        print(f"unscaled {name}: {value:.6g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
