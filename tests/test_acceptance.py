"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.  Every tolerance is exact; the slow sweeps state their
family (every isomorphism class, or the fixed seeded
sample documented in the README).
"""

import itertools
import random
import time

from srpowers.classify import Query, classify, verify_against_oracle
from srpowers.cohomology import is_cm
from srpowers.complexes import (
    complete_graph,
    cycle,
    disjoint_union,
    embed,
    from_facets,
    uniform_matroid,
)
from srpowers.fixtures import named_complex
from srpowers.ideals import (
    MonomialIdeal,
    cover_ideal,
    dual_complex,
    extension_decomposition_check,
    facet_ideal,
    maximal_ideal,
    minimal_primes,
    principal,
    sr_ideal,
    symbolic_power,
)
from srpowers.matroids import (
    is_complete_intersection,
    is_disjoint_union_of_uniform,
    is_matroid_exchange,
    join_decomposition,
)
from srpowers.sweeps import run_sweep

SAMPLE_SEED = 20120229
SAMPLE_SIZE = 500
PARALLEL = 2


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    return ok


def test_criterion_01_square_vs_symbolic_square_fixture():
    start = time.monotonic()
    delta = named_complex("example-4-10")
    ideal = sr_ideal(delta)
    square = ideal.power(2)
    sym = symbolic_power(delta, 2)
    socle_gen = principal(5, (1, 1, 1, 1, 1))

    equality = sym.gens == square.add(socle_gen).gens
    report("1a (symbolic square = square + full product monomial)", equality)

    # With I = (x1x5, x2x5, x1x2x3x4) and f = x1x2x3x4x5, every product of
    # two generators of I needs x1^2, x2^2 or x5^2.  So x1*f, x2*f and x5*f
    # lie in the square while x3*f and x4*f do not: (square : f) =
    # (x1, x2, x5).  By 1a this colon ideal annihilates symbolic square /
    # square, which is (S/(x1, x2, x5))(-5).  That module has dimension 2,
    # so no power of the variable ideal m = (x1, ..., x5) kills it.
    f = (1, 1, 1, 1, 1)
    colon = [square.membership(tuple(e + (j == i) for j, e in enumerate(f))) for i in range(5)]
    product = maximal_ideal(5).multiply(sym)
    outside = sorted(g for g in product.gens if not square.membership(g))
    annihilator = MonomialIdeal.from_generators(5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)])
    checks = {
        "x1*f, x2*f, x5*f in the square, x3*f, x4*f not": colon == [True, True, False, False, True],
        "outside generators of m * symbolic square are x3*f, x4*f": (
            outside == [(1, 1, 1, 2, 1), (1, 1, 2, 1, 1)]
        ),
        "(x1, x2, x5) * symbolic square inside the square": square.contains(annihilator.multiply(sym)),
    }
    for k in (1, 2, 3):
        x3k_f = (1, 1, 1 + k, 1, 1)
        mk_sym = maximal_ideal(5).power(k).multiply(sym)
        checks[f"x3^{k}*f in m^{k} * symbolic square, outside the square"] = (
            mk_sym.membership(x3k_f) and not square.membership(x3k_f) and not square.contains(mk_sym)
        )
    elapsed = time.monotonic() - start
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    failure = f"failed: {bad}; generators of m * symbolic square outside the square: {outside}"
    report(
        "1b (symbolic square / square annihilated by (x1, x2, x5), by no power of the variables)",
        ok,
        f"{elapsed:.2f}s" if ok else failure,
    )
    assert equality
    assert ok, failure
    assert elapsed < 1.0


def test_criterion_02_fixture_oracle_cm_split():
    start = time.monotonic()
    delta = named_complex("example-4-10")
    sym_cm = is_cm(symbolic_power(delta, 2))
    ord_cm = is_cm(sr_ideal(delta).power(2))
    elapsed = time.monotonic() - start
    ok = sym_cm is True and ord_cm is False
    report("2 (oracle: symbolic square CM, ordinary square not)", ok, f"{elapsed:.2f}s")
    assert ok and elapsed < 10


def test_criterion_03_five_cycle_suite():
    start = time.monotonic()
    c5 = cycle(5)
    checks = {
        "not matroid": not is_matroid_exchange(c5),
        "not CI": not is_complete_intersection(c5),
        "symbolic square CM": is_cm(symbolic_power(c5, 2)),
        "symbolic cube not CM": not is_cm(symbolic_power(c5, 3)),
        "ordinary cube not CM": not is_cm(sr_ideal(c5).power(3)),
        "cover ideal not CM": not is_cm(cover_ideal(c5)),
    }
    elapsed = time.monotonic() - start
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    report("3 (5-cycle suite)", ok, f"{elapsed:.2f}s" if ok else f"failed: {bad}")
    assert ok and elapsed < 30


def test_criterion_04_three_4_sets_fixture():
    start = time.monotonic()
    delta = named_complex("example-5-4")
    dual_ok = is_matroid_exchange(dual_complex(delta))

    primes = minimal_primes(facet_ideal(delta))
    brute = []
    facets = [set(f) for f in delta.facet_sets()]
    for r in range(1, 7):
        for combo in itertools.combinations(range(1, 7), r):
            s = set(combo)
            if not all(s & f for f in facets):
                continue
            if any(set(p) <= s for p in brute):
                continue
            brute.append(tuple(sorted(s)))
    brute.sort()
    primes_ok = len(primes) == 12 and all(len(p) == 2 for p in primes) and list(primes) == brute
    elapsed = time.monotonic() - start
    ok = dual_ok and primes_ok
    report("4 (dual matroid + 12 height-two primes)", ok, f"{elapsed:.2f}s")
    assert ok and elapsed < 1.0


def test_criterion_05_pair_criterion_sweep():
    start = time.monotonic()
    result = run_sweep(["matroid-pair-criterion"], n_max=6)
    elapsed = time.monotonic() - start
    ok = result.disagreements == 0 and len(result.rows) > 9000
    report(
        "5 (exchange = pair criterion, all complexes on <= 6 vertices)",
        ok,
        f"{len(result.rows)} classes, {elapsed:.0f}s",
    )
    assert ok and elapsed < 300


def test_criterion_06_cube_oracle_sweep():
    start = time.monotonic()
    result = run_sweep(
        ["sym-cube-cm", "sym-cube-s2", "ord-cube-cm"],
        n_max=6,
        dim_min=2,
        sample=SAMPLE_SIZE,
        seed=SAMPLE_SEED,
        parallel=PARALLEL,
    )
    elapsed = time.monotonic() - start
    processed = result.processed
    ok = result.disagreements == 0 and processed >= 500
    report(
        "6 (cube oracle vs matroid/CI criteria, fixed sample)",
        ok,
        f"{processed} complexes, {len(result.rows)} rows, {elapsed:.0f}s",
    )
    assert ok and elapsed < 1800


def test_criterion_07_cover_cube_sweep():
    start = time.monotonic()
    result = run_sweep(
        ["cover-cube-cm"],
        n_max=6,
        dim_min=2,
        sample=SAMPLE_SIZE,
        seed=SAMPLE_SEED,
        parallel=PARALLEL,
    )
    elapsed = time.monotonic() - start
    ok = result.disagreements == 0 and result.processed >= 500
    report(
        "7 (cover-ideal cube CM = matroid, same family)",
        ok,
        f"{result.processed} complexes, {elapsed:.0f}s",
    )
    assert ok and elapsed < 1800


def test_criterion_08_degree_complex_and_reisner_cross_checks():
    start = time.monotonic()
    result = run_sweep(["degree-complex-links", "reisner-cm"], n_max=5)
    elapsed = time.monotonic() - start
    ok = result.disagreements == 0 and len(result.rows) > 300
    report(
        "8 (degree complexes = links; oracle = link homology criterion)",
        ok,
        f"{len(result.rows)} rows, {elapsed:.0f}s",
    )
    assert ok and elapsed < 300


def test_criterion_09_structure_theorems():
    start = time.monotonic()
    two = disjoint_union(
        embed(uniform_matroid(4, 3), 8), embed(uniform_matroid(4, 3), 8, 4)
    )
    q = Query(two, "stanley_reisner", "symbolic", "gCM", 3)
    comparison = verify_against_oracle(q)
    gcm_ok = comparison.theorem_verdict == "holds" and comparison.agree

    k3k3 = embed(complete_graph(3), 6).join(embed(complete_graph(3), 6, 3))
    factors = join_decomposition(k3k3)
    rejoined = factors[0]
    for f in factors[1:]:
        rejoined = rejoined.join(f)
    join_ok = rejoined == k3k3

    e54 = named_complex("example-5-4")
    counterexample_ok = is_matroid_exchange(dual_complex(e54)) and not is_disjoint_union_of_uniform(e54, 3)

    elapsed = time.monotonic() - start
    ok = gcm_ok and join_ok and counterexample_ok
    report("9 (structure theorems and the 3-uniform counterexample)", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_10_extension_decomposition_randomized():
    start = time.monotonic()
    rng = random.Random(20120711)
    passed = 0
    cases = 0
    while cases < 50:
        m = rng.randint(1, 3)
        if cases % 2 == 0:
            # squarefree input, symbolic identity
            n = rng.randint(2, 4)
            gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
            gens += [[v] for v in range(1, n + 1)]
            ideal = sr_ideal(from_facets(n, gens))
            if ideal.is_zero:
                continue
            kind = "symbolic"
        else:
            n = rng.randint(2, 4)
            gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            if all(sum(g) == 0 for g in gens):
                continue
            ideal = MonomialIdeal.from_generators(n, gens)
            if ideal.is_unit:
                continue
            kind = "ordinary"
        cases += 1
        if extension_decomposition_check(ideal, m, kind):
            passed += 1
    elapsed = time.monotonic() - start
    ok = passed == 50
    report("10 (polynomial-extension power decomposition, 50 cases)", ok, f"{elapsed:.1f}s")
    assert ok
