"""The classification engine and the theorem-versus-oracle sweeps.

Run with:  python demos/04_classification_and_sweeps.py
"""

import json

from srpowers import (
    Query,
    classify,
    classify_with_oracle,
    cycle,
    disjoint_union,
    embed,
    named_complex,
    uniform_matroid,
    verify_against_oracle,
)
from srpowers.sweeps import CSV_HEADER, run_sweep

# For every exponent from three on, Cohen-Macaulayness of a symbolic
# power is the matroid exchange axiom; the report names the rule and a
# combinatorial witness on failure.
c5 = cycle(5)
rep = classify(Query(c5, "stanley_reisner", "symbolic", "CM", 3))
print("5-cycle, symbolic cube, CM:")
print(json.dumps(rep.to_json(), indent=2))

# Below the threshold the engine refuses to guess and the oracle takes
# over: the symbolic square of the 5-cycle happens to be CM.
rep = classify_with_oracle(Query(c5, "stanley_reisner", "symbolic", "CM", 2))
print("\n5-cycle, symbolic square, CM (oracle attached):")
print(json.dumps(rep.to_json(), indent=2))

# Generalized Cohen-Macaulayness picks out disjoint unions of matroids
# of equal dimension; the oracle confirms on the explicit cube.
two = disjoint_union(embed(uniform_matroid(4, 3), 8), embed(uniform_matroid(4, 3), 8, 4))
cmp = verify_against_oracle(Query(two, "stanley_reisner", "symbolic", "gCM", 3))
print("\ntwo disjoint 3-simplices, symbolic cube, gCM:")
print("  theorem:", cmp.theorem_verdict, " oracle:", cmp.oracle_verdict, " agree:", cmp.agree)

# Cover ideals behave like the Stanley-Reisner ideal itself.
rep = classify(Query(uniform_matroid(6, 2), "cover", "symbolic", "CM", 5))
print("\nuniform matroid, cover-ideal fifth symbolic power, CM:", rep.verdict)

# Facet ideals reduce to the dual complex; the three-4-sets fixture is
# the reason there is no structure theorem in dimension three: the dual
# is a matroid although the complex splits into no 3-uniform pieces.
e54 = named_complex("example-5-4")
rep = classify(Query(e54, "facet", "symbolic", "CM", "all"))
print("\nthree-4-sets fixture, facet symbolic powers, CM:", rep.verdict)
print("  caveats:", rep.caveats)

# A miniature sweep: the pair criterion against the exchange axiom over
# every isomorphism class on up to four vertices.
result = run_sweep(["matroid-pair-criterion"], n_max=4)
print("\nsweep: exchange = pair criterion on <= 4 vertices")
print(CSV_HEADER)
for row in result.rows[:8]:
    print(row.csv())
print(f"... {len(result.rows)} rows, disagreements: {result.disagreements}")
