"""The census of small le-modules (``census``), pinned: how many modules of
each kind it holds, and every statement's verdicts on them.

No statement is falsified on any census module.  The brute-force
references run on the census too: ``test_scan_reference``'s ``instances``
and ``test_closure_reference``'s ``_instances`` include it.
"""

from collections import Counter

from census import census

from lemspec import natural_map as nmap
from lemspec import verify
from lemspec.le_modules import annihilator
from lemspec.memo import release
from lemspec.spectra import build_topologies, is_top_le_module, point_set_properties

V, H, N = verify.VERIFIED, verify.HYPOTHESIS_NOT_MET, verify.NOT_APPLICABLE
ON_THE_MAP = ("P4.1", "P4.2", "T4.3", "T4.5", "P5.1", "T5.4", "T6.6", "T7.1", "T7.3")
NO_DETAIL = ("L2.1", "P3.1", "T5.3", "P6.1", "P6.2", "C6.3", "P6.4", "P6.5")


def _clauses(names: str, value: bool) -> str:
    return " ".join(f"{name}={value}" for name in names.split())


INJECTIVE = "psi-injective vstar-separated colon-fibers-at-most-one"
CONNECTED = "module-spectrum-connected ring-spectrum-connected idempotents-trivial"
SPECTRAL = "spectral t0 vstar-separated colon-fibers-at-most-one psi-injective homeomorphic"

# (statement, verdict, detail) -> modules; L2.1's detail, the numbers of
# ideals and submodule elements, is left out.
VERDICTS = {
    **{(sid, V, None): 5177 for sid in NO_DETAIL},
    ("T3.5", V, "top instance: finer-topology clause checked"): 4368,
    ("T3.5", V, "not a top instance: finer-topology clause vacuous"): 809,
    **{(sid, N, "degenerate: no reduced ring"): 4 for sid in (*ON_THE_MAP, "T7.2")},
    ("P4.1", V, None): 5173,
    ("P4.2", V, _clauses(INJECTIVE, True)): 1475,
    ("P4.2", V, _clauses(INJECTIVE, False)): 3698,
    ("T4.3", V, None): 5173,
    ("T4.5", V, _clauses(CONNECTED, True)): 5037,
    ("T4.5", V, _clauses(CONNECTED, False)): 136,
    ("P5.1", V, None): 5173,
    ("T5.4", V, "finite space: quasi-compactness holds automatically"): 5173,
    ("T6.6", V, "components=1"): 5037,
    ("T6.6", V, "components=2"): 136,
    ("T7.1", V, _clauses(SPECTRAL, True)): 1475,
    ("T7.1", V, _clauses(SPECTRAL, False)): 3698,
    ("T7.2", V, None): 1264,
    ("T7.2", H, "multiplication=False surjective=True"): 3909,
    ("T7.3", V, "spectral=True injective=True"): 1475,
    ("T7.3", V, "spectral=False injective=False"): 3698,
    ("T7.4", V, None): 5173,
    ("T7.4", H, "empty spectrum"): 4,
}


def test_census_is_pinned():
    kinds, verdicts = Counter(), Counter()
    for mod in census():
        for stmt in verify.STATEMENTS:
            verdict, witness, detail = stmt.check(mod)
            assert verdict != verify.FALSIFIED, (mod.name, stmt.sid, witness, detail)
            verdicts[stmt.sid, verdict, None if stmt.sid == "L2.1" else detail] += 1
        nm = nmap.build_natural_map(mod)
        if nm.degenerate:
            kinds["degenerate"] += 1
        else:
            kinds["spectral" if nmap.spectral_battery(nm)["spectral"] else "not spectral"] += 1
            kinds["disconnected"] += not point_set_properties(build_topologies(mod).star).is_connected
            kinds["Ann != 0"] += len(annihilator(mod).members) > 1
            kinds["not top"] += not is_top_le_module(mod)
        release(mod)
    assert kinds == {
        "degenerate": 4,
        "spectral": 1475,
        "not spectral": 3698,
        "disconnected": 136,
        "Ann != 0": 2244,
        "not top": 809,
    }
    assert verdicts == VERDICTS
