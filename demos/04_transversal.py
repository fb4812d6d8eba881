"""Selectors, the transversal topology, and where translations break.

The normalized selector routes every pair with a defined element onto
the identity slice; its fixed points form a transversal meeting each
class once.  Pushing the transversal's subspace topology through the
class map yields a topology finer than the quotient with the same Borel
sets, and the translation table shows exactly where the group fails to
act continuously for it.
"""

from pactop import (
    action_continuity_table,
    bireducibility_report,
    build,
    example_k3,
    normalized_selector,
    transversal,
    transversal_topology,
)
from pactop.topology import iter_bits

pa = example_k3()
glob = build(pa)
names = ("x0", "v")

sel = normalized_selector(pa)
pairs = [(p // 2, names[p % 2]) for p in iter_bits(transversal(sel))]
print(f"transversal pairs: {pairs}")

brep = transversal_topology(glob, sel)
print(f"quotient opens:    {glob.topology.opens}")
print(f"transversal opens: {brep.tau.opens}")
print(f"same Borel sets:   {brep.quotient_atoms == brep.tau.atoms} "
      f"({2 ** len(brep.tau.atoms)} of them)")

rows, _ = action_continuity_table(glob, brep)
for g, row in enumerate(rows):
    where = [c for c, ok in enumerate(row) if not ok]
    verdict = "continuous" if not where else f"discontinuous at classes {where}"
    print(f"translation by {g}: {verdict}")

rep = bireducibility_report(glob, sel)
print(f"carrier orbits and envelope classes reduce both ways: {rep.ok}")
