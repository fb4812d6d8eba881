"""Enveloping space of a partial action.

The carrier is the group-indexed product glued along
``PartialAction.lifted_orbits``: (g, x) is identified with (h, y) when
the element inv(h)*g carries x to y.  The quotient inherits the product
topology, the group translates classes, and the original space embeds
as the identity slice.
"""

from __future__ import annotations

import itertools

from . import topology as topo
from .errors import AxiomViolation
from .paction import PartialAction, check_total_action
from .record import Record
from .relations import EqRel, disagreements
from .reports import Report, ReportBuilder
from .topology import FinTop, iter_bits, mask_of


class Globalization(Record):
    """Enveloping space with its quotient topology and total action.

    ``relation.class_id[g * |X| + x]`` is the class of (g, x) in the
    group-indexed product ``source.product``, and ``relation.least[c]``
    the least such g * |X| + x in class c; ``action[g]`` permutes class
    indices, ``embedding`` sends carrier points to classes of the
    identity slice.
    """

    source: PartialAction
    relation: EqRel
    topology: FinTop
    action: tuple[tuple[int, ...], ...]
    embedding: tuple[int, ...]

    @property
    def product(self) -> FinTop:
        return self.source.product

    @property
    def num_classes(self) -> int:
        return self.relation.num_classes


def build(pa: PartialAction) -> Globalization:
    """Construct the enveloping space on the class ids of the gluing
    relation, the cached ``pa.lifted_orbits``.

    Translation by g sends class c to the class of (g*h, x) for the
    least member (h, x) of c, checked at every member of c.  The
    identity-slice embedding must be injective, and ``check_total_action``
    must accept the translations on the quotient.
    """
    group, space = pa.group, pa.space
    size = space.size
    relation = pa.lifted_orbits
    class_id, least = relation.class_id, relation.least

    action_rows = []
    for g in group.elements():
        # moved[p] is the class of (g*h, x) for p = (h, x)
        moved: list[int] = []
        for gh in group.mul[g]:
            moved += class_id[gh * size:(gh + 1) * size]
        row = tuple(moved[p] for p in least)
        bad = [c for c, m in zip(class_id, moved) if m != row[c]]
        if bad:
            c = min(bad)
            targets = sorted({m for d, m in zip(class_id, moved) if d == c})
            raise AxiomViolation(
                f"translation by {g} is not well defined on class {c}", (g, c, *targets)
            )
        action_rows.append(row)

    e = group.identity
    embedding = class_id[e * size:(e + 1) * size]
    if len(set(embedding)) != size:
        dup = tuple(
            (x, y) for x, y in itertools.combinations(range(size), 2)
            if embedding[x] == embedding[y]
        )
        raise AxiomViolation("identity-slice embedding is not injective", dup)

    quotient = topo.quotient(pa.product, relation)
    check_total_action(group, quotient, action_rows)
    return Globalization(pa, relation, quotient, tuple(action_rows), embedding)


def embedding_report(glob: Globalization) -> Report:
    """Checks that the identity slice embeds homeomorphically and
    equivariantly, that its image is open under the openness hypothesis
    on the definedness graph, that the enveloping translations are
    homeomorphisms, and that restricting them back to the image
    reproduces the original partial action.

    The restriction is read on class labels: the embedded ``dom[g]``
    must be the part of the image that translation by g carries into
    the image, and each move must match.  It is a partial action with no
    further check: ``build`` verified the action laws, and every
    translation descends from a slice permutation of the product.
    """
    pa = glob.source
    group, space = pa.group, pa.space
    rb = ReportBuilder("embedding")

    image = mask_of(glob.embedding)
    positions = {c: i for i, c in enumerate(iter_bits(image))}
    sub = topo.subspace(glob.topology, image)
    emb = [positions[glob.embedding[x]] for x in space.points()]
    cont = rb.check("embedding continuous", topo.is_continuous(emb, space, sub))
    opens = rb.check("embedding open onto its image", topo.is_open_map(emb, space, sub))

    bad_eq = []
    bad_restriction: list[tuple] = [] if cont and opens else [("space",)]
    for g in group.elements():
        row = glob.action[g]
        reached = image & mask_of(row[c] for c in iter_bits(image))
        if mask_of(glob.embedding[x] for x in iter_bits(pa.dom[g])) != reached:
            bad_restriction.append(("dom", g))
        for x in iter_bits(pa.dom[group.inv[g]]):
            if row[glob.embedding[x]] != glob.embedding[pa.act(g, x)]:
                bad_eq.append((g, x))
                bad_restriction.append(("map", g, x))
    rb.check(
        "translation matches the original moves on the image",
        not bad_eq,
        tuple(bad_eq),
    )

    if pa.graph_open:
        rb.check(
            "embedded image open (definedness graph open)",
            topo.is_open(glob.topology, image),
        )
    else:
        rb.na(
            "embedded image open (definedness graph open)",
            "hypothesis failed: definedness graph not open",
        )

    q = glob.topology
    bad_homeo = [
        g for g in group.elements()
        if not topo.is_homeomorphism(glob.action[g], q, q.full, q, q.full)
    ]
    rb.check(
        "every translation is a homeomorphism of the quotient",
        not bad_homeo,
        tuple(bad_homeo),
    )
    rb.check(
        "restriction to the image reproduces the original action",
        not bad_restriction,
        tuple(bad_restriction),
    )
    return rb.build()


def hat_relation_report(glob: Globalization) -> Report:
    """The envelope's relation must coincide exactly with the orbit
    relation of the lifted action on the product, the source's
    ``lifted_orbits``.  ``build`` glues along that very table, so the
    check holds by construction on the envelopes it returns; it stays
    for envelopes built elsewhere, and names the first pair on which
    the two relations disagree."""
    rb = ReportBuilder("lift-orbit-relation")
    lifted_orbits = glob.source.lifted_orbits
    same = glob.relation == lifted_orbits
    witness: tuple = ()
    if not same:
        witness = next(disagreements(glob.relation.class_id, lifted_orbits.class_id))
    rb.check("gluing relation equals lifted orbit relation", same, witness)
    rb.info("class count", (glob.num_classes,))
    return rb.build()


def effros_report(pa: PartialAction) -> Report:
    """The three class-structure conditions at finite scale: orbit
    relation R a countable intersection of opens in the square, every
    orbit one in the space, and the orbit quotient T0.  Their three-way
    equivalence is asserted only on discrete carriers; elsewhere the
    flags are stated without interpretation.  The square is not built:
    R is open in it when N(x)×N(y) ⊆ R at each (x, y) in R, that is,
    when N(y) lies in the orbit of each z in N(x), the definition itself."""
    rb = ReportBuilder("orbit-class-structure")
    space, orbits = pa.space, pa.orbits
    rel_open = all(
        space.nbrs[y] & ~orbits[z] == 0
        for x in space.points()
        for y in iter_bits(orbits[x])
        for z in iter_bits(space.nbrs[x])
    )
    orb_open = all(topo.is_open(space, o) for o in orbits)
    t0 = topo.separation(pa.orbit_quotient).t0

    rb.info("orbit relation open in the square", (rel_open,))
    rb.info("every orbit open", (orb_open,))
    rb.info("orbit quotient T0", (t0,))

    if topo.separation(space).t1:  # a finite T1 space is discrete
        rb.check(
            "three conditions agree on a discrete carrier",
            rel_open == orb_open == t0,
            (rel_open, orb_open, t0),
        )
    else:
        rb.na(
            "three conditions agree on a discrete carrier",
            "carrier not discrete; flags stated without interpretation",
        )
    return rb.build()
