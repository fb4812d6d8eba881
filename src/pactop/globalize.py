"""Enveloping space of a partial action.

The carrier is the group-indexed product glued along
``PartialAction.lifted_orbits``: (g, x) is identified with (h, y) when
the element inv(h)*g carries x to y.  The quotient inherits the product
topology, the group translates classes, and the original space embeds
as the identity slice.
"""

from __future__ import annotations

from . import topology as topo
from .paction import PartialAction
from .record import Record
from .relations import EqRel, disagreements
from .reports import Report, ReportBuilder
from .topology import FinTop, image_of, iter_bits, mask_of, union_of


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


# The envelope, read off the gluing formula.  Once ``lifted_orbits``
# returns, the row of (h, x), the (h*k, inv(k).x) for each k with x in
# dom(k), is exactly its class; and ``mul``, ``inv`` and ``identity``
# form a group table, as ``FiniteGroup`` requires.  So:
# - left translation by g maps the row of (h, x) onto the row of
#   (g*h, x): translation is well defined on classes, a permutation
#   whose inverse is translation by inv(g), and the rows compose;
# - it is a slice shift of the product that respects the relation, so
#   it is continuous on the quotient;
# - reflexivity puts (e, x) in its own row, and only k = e can put it
#   there, which forces e.x = x: the row of (e, x) meets the identity
#   slice at (e, x) alone, so the identity slice embeds injectively;
# - the identity-slice members of the row of (g, y) are those with
#   g*k = e, that is k = inv(g): [(e, g.y)] when g acts at y, and none
#   otherwise.
# ``build`` and ``selector.normalized_selector`` check none of this
# again, and ``embedding_report`` reads the action laws from here.


def build(pa: PartialAction) -> Globalization:
    """Construct the enveloping space on the class ids of the gluing
    relation, the cached ``pa.lifted_orbits``.

    Translation by g sends class c to the class of (g*h, x) for the
    least member (h, x) of c, and the identity slice embeds as its
    classes: by the lemma above, both are well defined, and the
    translations form a continuous action on the quotient.
    """
    size = pa.space.size
    relation = pa.lifted_orbits
    class_id = relation.class_id
    least = [divmod(p, size) for p in relation.least]
    action = tuple(
        tuple([class_id[mul_g[h] * size + x] for h, x in least])
        for mul_g in pa.group.mul
    )
    e = pa.group.identity
    embedding = class_id[e * size:(e + 1) * size]
    quotient = topo.quotient(pa.product, relation)
    return Globalization(pa, relation, quotient, action, embedding)


def embedding_report(glob: Globalization) -> Report:
    """Checks that the identity slice embeds homeomorphically and
    equivariantly, that its image is open under the openness hypothesis
    on the definedness graph, that the enveloping translations are
    homeomorphisms, and that restricting them back to the image
    reproduces the original partial action.

    The restriction is read on class labels: the embedded ``dom[g]``
    must be the part of the image that translation by g carries into
    the image, and each move must match.  It is a partial action with no
    further check: the translations are an action by the lemma above
    ``build``, and each descends from a slice permutation of the
    product.
    """
    pa = glob.source
    group, space = pa.group, pa.space
    rb = ReportBuilder("embedding")

    q, emb = glob.topology, glob.embedding
    image = mask_of(emb)
    topo._check_subset(q, image, "subspace carrier")
    # At each x, moved is the image of N(x) and trace the neighbourhood
    # of its class in the image's subspace.  The map is continuous when
    # moved lies in trace at every x, and open onto its image when trace
    # lies in moved at every x: images keep unions, and each y in N(x)
    # has N(y) inside N(x), so the image of N(x) is open in the subspace
    # exactly when it holds the trace at each of its classes.
    cont = opens = True
    for x, n in enumerate(space.nbrs):
        moved, trace = image_of(emb, n), q.nbrs[emb[x]] & image
        cont = cont and not moved & ~trace
        opens = opens and not trace & ~moved
    cont = rb.check("embedding continuous", cont)
    opens = rb.check("embedding open onto its image", opens)

    bad_eq = []
    bad_restriction: list[tuple] = [] if cont and opens else [("space",)]
    for g in group.elements():
        row = glob.action[g]
        reached = image & image_of(row, image)
        if image_of(glob.embedding, pa.dom[g]) != reached:
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
    when N(y) lies in the orbit of each z in N(x), the definition itself:
    at each x, when the union of N(y) over the orbit of x does."""
    rb = ReportBuilder("orbit-class-structure")
    space, orbits = pa.space, pa.orbits
    nbrs = space.nbrs
    reach = [union_of(nbrs, o) for o in orbits]  # per x, N(y) over its orbit
    rel_open = all(
        r & ~orbits[z] == 0 for r, n in zip(reach, nbrs) for z in iter_bits(n)
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
