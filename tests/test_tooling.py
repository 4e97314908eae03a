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
