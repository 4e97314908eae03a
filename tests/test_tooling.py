"""The bench's span tracer names functions of the package by string; a
rename would leave a layer untraced and reading 0, so every name must
resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # defines the tables; installs nothing
    names = [(mod, dotted) for mod, attrs in spans.SPANNED.items() for dotted in attrs]
    names += [("enumeration", "antichains"), ("cohomology", "_canonical_ideal_key")]  # counted hooks
    missing = []
    for module_name, dotted in names:
        # resolved as ``spans.install`` does: defined on the module, or on
        # the class named before the dot
        owner = importlib.import_module(f"srpowers.{module_name}")
        owner_name, _, attr = dotted.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{dotted}")
    assert len(names) > 80 and not missing, missing


TRACED_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:]
import importlib, spans
tracer = spans.Tracer()
spans.install(tracer)
classify = importlib.import_module("srpowers.classify")
complexes = importlib.import_module("srpowers.complexes")
for prop in ("CM", "S2", "gCM"):
    q = classify.Query(complexes.uniform_matroid(4, 2), "stanley_reisner", "symbolic", prop, 3)
    classify.classify(q)
    classify.run_oracle(q)
print(json.dumps(tracer.raw()))
"""


def test_traced_queries_record_their_spans():
    # a function reached through a table built at import time would escape
    # the wrappers and leave its span out; run in a fresh interpreter so
    # the wrappers stay out of this session
    import json
    import subprocess
    import sys

    root = SPANS.parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(SPANS.parent), str(root / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and "not traced" not in proc.stderr, proc.stderr
    raw = json.loads(proc.stdout)
    for name in ("classify.classify", "classify.build_ideal", "matroids.matroid_exchange_witness",
                 "cohomology.is_cm", "cohomology.is_s2", "cohomology.is_generalized_cm"):
        assert raw.get(f"calls:{name}", 0) >= 1, name
    assert raw["count:cohomology.oracle_calls"] == 3


TRACED_DEPTH = """
import json, sys
sys.path[:0] = sys.argv[1:]
import importlib, spans
tracer = spans.Tracer()
spans.install(tracer)
cohomology = importlib.import_module("srpowers.cohomology")
complexes = importlib.import_module("srpowers.complexes")
ideals = importlib.import_module("srpowers.ideals")
cube = ideals.SymbolicPower.of(ideals.sr_ideal(complexes.cycle(6)), 3).ideal()
report = cohomology.depth_dim(cube)
print(json.dumps([report.depth, report.dim, tracer.raw()]))
"""


def test_traced_rational_fallback_hands_rank_sparse_rows():
    # the 6-cycle's degree complexes have cohomology over F_2, so the depth
    # scan ranks them over Q too; the tracer's hook on ``linalg.rank``
    # takes len(rows[0]), which on a sparse row is its number of entries
    import json
    import subprocess
    import sys

    root = SPANS.parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_DEPTH, str(SPANS.parent), str(root / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and "not traced" not in proc.stderr, proc.stderr
    depth, dim, raw = json.loads(proc.stdout)
    assert (depth, dim) == (1, 2)
    assert raw.get("calls:linalg.rank", 0) >= 1
    assert raw.get("count:linalg.rank.cells", 0) >= 1
