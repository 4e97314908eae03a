"""Span tracing of srpowers from outside the package.

``install`` replaces public functions of the srpowers modules with
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Every module attribute bound to a
wrapped function is replaced, so names that one module imported from
another (``cohomology.rank``, ``cohomology.minimal_transversals``,
``sweeps.is_matroid_exchange``...) are traced as well.  Nothing inside
``src/`` changes; the wrappers live only in the traced process.

Spans are kept in memory and written once, when the traced process ends.
A span's self time is its duration minus the durations of its direct
child spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

MODULES = (
    "bits",
    "complexes",
    "enumeration",
    "matroids",
    "ideals",
    "linalg",
    "cohomology",
    "classify",
    "sweeps",
    "fixtures",
    "cli",
)

# (module, attribute) pairs wrapped with a span per call.  Methods are
# given as "Class.method".  Tiny helpers called per antichain or per box
# row (bits.iter_bits, bits.antichain_minimal, enumeration.signature) are
# left out: a span there would cost more than the work it times.
SPANNED = {
    "bits": ("minimal_transversals",),
    "complexes": (
        "SimplicialComplex.faces",
        "SimplicialComplex.has_face",
        "SimplicialComplex.faces_of_size",
        "SimplicialComplex.facet_sets",
        "SimplicialComplex.minimal_nonfaces",
        "SimplicialComplex.link",
        "SimplicialComplex.star",
        "SimplicialComplex.induced",
        "SimplicialComplex.join",
        "SimplicialComplex.complement",
        "SimplicialComplex.connected_components",
        "SimplicialComplex.is_connected",
        "from_facets",
        "complex_from_json",
        "embed",
        "disjoint_union",
        "cycle",
        "path",
        "complete_graph",
        "simplex",
        "uniform_matroid",
    ),
    "enumeration": ("distinct_complexes", "sample_complexes", "structured_positives"),
    "matroids": (
        "matroid_exchange_witness",
        "is_matroid_exchange",
        "is_matroid_pair",
        "graph_matroid_criterion",
        "is_locally_matroid",
        "ci_witness",
        "is_complete_intersection",
        "is_locally_ci",
        "matroid_components",
        "is_uniform",
        "is_disjoint_union_of_uniform",
        "join_decomposition",
        "shared_link_check",
    ),
    "ideals": (
        "minimalize",
        "MonomialIdeal.from_generators",
        "MonomialIdeal.intersect",
        "MonomialIdeal.multiply",
        "MonomialIdeal.power",
        "MonomialIdeal.add",
        "sr_ideal",
        "complex_of_radical",
        "minimal_primes",
        "facet_ideal",
        "cover_ideal",
        "dual_complex",
        "symbolic_power_ideal",
        "symbolic_power",
        "symbolic_power_by_intersection",
        "contract",
        "localized_membership",
        "ideal_from_json",
    ),
    "linalg": ("rank", "parse_field"),
    "cohomology": (
        "degree_complex",
        "reduced_cohomology_dims",
        "reduced_homology_dims",
        "quotient_dimension",
        "depth_dim",
        "is_cm",
        "is_s2",
        "is_generalized_cm",
        "is_equidimensional",
        "reisner_is_cm",
        "qb_connectivity_consequence",
        "_scan",
        "_box_rows",
    ),
    "classify": ("classify", "build_ideal", "run_oracle", "verify_against_oracle", "classify_with_oracle"),
    "sweeps": ("run_sweep",),
    "fixtures": ("named_complex", "parse_complex_spec"),
    "cli": ("main",),
}

# Entry points of the depth oracle; a call from outside the cohomology
# layer into one of these is one oracle call.
ORACLE_ENTRIES = ("is_cm", "is_s2", "is_generalized_cm", "depth_dim")

# Module-level memo tables of the oracle, read (never written) at the end.
COHOMOLOGY_MEMOS = ("_FACETS_CACHE", "_DIMS_CACHE", "_CM_MEMO", "_S2_MEMO")


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.scans: list[tuple[object, int]] = []  # (ideal, below) per _scan call

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; an iterator result gets one span per
        ``next`` instead, so a generator's work is charged to it."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hasattr(out, "__next__"):
                return tracer._spanned_iter(name, out)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _spanned_iter(self, name: str, it):
        key = f"count:{name}.items"
        while True:
            idx = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(idx)
            self.counts[key] += 1
            yield item

    def counted(self, key: str, fn):
        """``fn`` with its calls (or, for a generator, its items) counted,
        without a span."""
        counts = self.counts

        def counted_fn(*args, **kwargs):
            out = fn(*args, **kwargs)
            if hasattr(out, "__next__"):
                return _counting_iter(counts, key, out)
            counts[key] += 1
            return out

        counted_fn.__wrapped__ = fn
        return counted_fn

    @contextmanager
    def phase(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- results -----------------------------------------------------------

    def raw(self) -> dict[str, float]:
        """Summable aggregates: per-layer self time and entries, per-function
        calls and inclusive time, and the counters."""
        n = len(self.starts)
        names, parents = self.names, self.parents
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = names[i]
            layer = name.split(".", 1)[0]
            out[f"self_s:{layer}"] += dur[i] - child[i]
            out[f"calls:{name}"] += 1
            p = parents[i]
            if p < 0 or names[p].split(".", 1)[0] != layer:
                out[f"entries:{layer}"] += 1
                if name.split(".")[-1] in ORACLE_ENTRIES and layer == "cohomology":
                    out["count:cohomology.oracle_calls"] += 1
            # inclusive time counts only the outermost span of a name
            q = p
            while q >= 0 and names[q] != name:
                q = parents[q]
            if q < 0:
                out[f"incl_s:{name}"] += dur[i]
        for key, value in self.counts.items():
            out[key] += value
        for ideal, below in self.scans:
            out["count:cohomology.box_rows"] += box_rows(ideal.max_exponents(), below)
        co = sys.modules.get("srpowers.cohomology")
        for memo in COHOMOLOGY_MEMOS:
            table = getattr(co, memo, None)
            if isinstance(table, dict):
                out["count:cohomology.memo_entries"] += len(table)
        return dict(out)

    def write(self, path) -> None:
        """Spans as gzipped CSV: index, name, start, end, parent (seconds
        from the first span)."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{name},{self.starts[i] - t0:.7f},{self.ends[i] - t0:.7f},{self.parents[i]}\n"
                )


def _counting_iter(counts, key, it):
    for item in it:
        counts[key] += 1
        yield item


def box_rows(rho, below: int) -> int:
    """Rows of the degree box {-1..rho_i-1}^n with fewer than ``below``
    negative coordinates, the rows a depth scan visits (computed from the
    generators' maximal exponents, not counted inside the scan)."""
    # ways[k]: vectors so far with exactly k negative coordinates
    ways = [1]
    for r in rho:
        nxt = [0] * (len(ways) + 1)
        for k, w in enumerate(ways):
            nxt[k] += w * r
            nxt[k + 1] += w
        ways = nxt
    return sum(ways[: max(below, 0)])


def install(tracer: Tracer) -> None:
    """Import every srpowers module and replace the planned functions,
    wherever a module holds them, with traced wrappers."""
    mods = {m: importlib.import_module(f"srpowers.{m}") for m in MODULES}
    replace: dict[int, object] = {}  # id of an original function -> its wrapper

    def plan(module_name: str, dotted: str, make) -> None:
        mod = mods[module_name]
        owner_name, _, attr = dotted.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            print(f"bench: {module_name}.{dotted} not found, not traced", file=sys.stderr)
            return
        raw = vars(owner)[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapper = make(fn)
        if owner_name:
            setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        else:
            replace[id(fn)] = wrapper

    hooks = _hooks(tracer)
    for module_name, attrs in SPANNED.items():
        for dotted in attrs:
            name = f"{module_name}.{dotted}"
            before, after = hooks.get(name, (None, None))
            plan(module_name, dotted,
                 lambda fn, name=name, before=before, after=after: tracer.spanned(name, fn, before, after))
    plan("enumeration", "antichains", lambda fn: tracer.counted("count:enumeration.antichains", fn))
    plan("cohomology", "_canonical_ideal_key",
         lambda fn: tracer.counted("count:cohomology.memo_lookups", fn))

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "srpowers":
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def _hooks(tracer: Tracer):
    counts = tracer.counts

    def minimalize_in(args, kwargs):
        vectors = args[0]
        if not hasattr(vectors, "__len__"):
            vectors = list(vectors)
        counts["count:ideals.minimalize.vectors_in"] += len(vectors)
        return (vectors,) + tuple(args[1:])

    def minimalize_out(args, out):
        counts["count:ideals.minimalize.kept"] += len(out)

    def rank_out(args, out):
        rows = args[0]
        if rows:
            counts["count:linalg.rank.cells"] += len(rows) * len(rows[0])

    def scan_in(args, kwargs):
        below = args[1] if len(args) > 1 else kwargs["below"]
        tracer.scans.append((args[0], below))
        return args

    return {
        "ideals.minimalize": (minimalize_in, minimalize_out),
        "linalg.rank": (None, rank_out),
        "cohomology._scan": (scan_in, None),
    }
