"""Glue a partial action into its enveloping space.

The running instance is the bundled two-point one: an order-3 rotation
that moves the open point v everywhere but touches the closed basepoint
x0 only through the identity.  The envelope has one class per
unreachable slice copy of x0 plus one shared class for v, and the
embedded copy of the carrier sits inside it as an open piece.
"""

from pactop import build, example_k3, separation
from pactop.cli import dot_export

pa = example_k3()
glob = build(pa)
names = ("x0", "v")

print(f"classes: {glob.num_classes}")
for c, p in enumerate(glob.relation.least):
    g, x = divmod(p, pa.space.size)
    print(f"  class {c}: least pair ({g},{names[x]})")

print(f"embedding of the carrier: "
      f"{ {names[x]: glob.embedding[x] for x in pa.space.points()} }")
print(f"envelope opens (class masks): {glob.topology.opens}")

sep = separation(glob.topology)
print(f"separation: T0={sep.t0} T1={sep.t1} T2={sep.t2}")

print("\ntranslation table (class -> class):")
for g in pa.group.elements():
    print(f"  element {g}: {glob.action[g]}")

print("\nDOT graph of the envelope:")
print(dot_export(glob, names))
