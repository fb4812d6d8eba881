"""Selectors, transversals and the transversal topology.

A selector maps every point of the product carrier to a canonical
member of its class under the lifted-action orbit relation.  The
normalized selector routes every pair (g, x) with g defined at x to the
identity-slice representative (identity, g.x); its fixed points form a
transversal whose subspace topology, pushed through the class map,
refines the quotient topology while generating the same Borel algebra.
"""

from __future__ import annotations

from itertools import islice

from . import topology as topo
from .errors import AxiomViolation, has_entries, in_range
from .globalize import Globalization
from .paction import PartialAction
from .record import Record
from .relations import EqRel, disagreements, from_relation
from .reports import Report, ReportBuilder
from .topology import FinTop, image_of, iter_bits, mask_of, union_of


class SelectorMap(Record):
    """Idempotent point map on ``range(size)``; classes are the fibers."""

    size: int
    image: tuple[int, ...]

    def __init__(self, size: int, image: tuple[int, ...]):
        if not has_entries(image, size):
            raise ValueError("image must assign a value to every point")
        for x, y in enumerate(image):
            if not in_range(y, size):
                raise ValueError(f"image[{x}] = {y!r} out of range")
        for x in range(size):
            if image[image[x]] != image[x]:
                raise ValueError(f"not idempotent at {x}")
        self._set("size", size)
        self._set("image", tuple(image))  # a list would not hash


def transversal(sel: SelectorMap) -> int:
    """Fixed-point set: by idempotency, the image, one point per fiber."""
    return mask_of(sel.image)


def normalized_selector(pa: PartialAction) -> SelectorMap:
    """Selector for the lifted orbit relation, normalized onto the
    identity slice wherever the group element is defined.

    Each point goes to the identity-slice member of its class, and to
    the class's least member when there is none.  By the lemma above
    ``globalize.build``, a class meets the identity slice at most once,
    at (identity, g.y) for the (g, y) in it with g acting at y: so the
    map is a selector for the lifted orbits, and is not checked again.
    """
    size = pa.space.size
    rel = pa.lifted_orbits
    base = pa.group.identity * size
    on_slice = {rel.class_id[p]: p for p in range(base, base + size)}
    image = tuple([on_slice.get(c, rel.least[c]) for c in rel.class_id])
    return SelectorMap(rel.size, image)


class BorelReport(Record):
    """Transversal topology, the atoms of the quotient Borel structure
    it is compared on, and the clause-by-clause report."""

    tau: FinTop
    quotient_atoms: tuple[int, ...]
    report: Report


def _quotient_atoms(glob: Globalization) -> tuple[int, ...]:
    """The atoms of the quotient Borel structure, in increasing order as
    ``FinTop.atoms`` lists them.

    A class set is Borel in the quotient when its preimage is a union of
    product atoms.  The group is discrete, so those atoms are the slices
    {g} x A of the space's atoms A.  A class set is then Borel exactly
    when it holds all or none of the classes meeting each slice, so its
    atoms are the components of the classes joined by a common slice:
    one image per slice of two or more points, then one frontier walk
    per component."""
    space, cid = glob.source.space, glob.relation.class_id
    size = space.size
    joined = [0] * glob.num_classes  # per class, the classes sharing a slice
    for atom in space.atoms:
        if not atom & (atom - 1):  # one point meets one class
            continue
        for g in glob.source.group.elements():
            meet = image_of(cid[g * size:(g + 1) * size], atom)
            if meet & (meet - 1):
                for c in iter_bits(meet):
                    joined[c] |= meet
    out = []
    left = (1 << len(joined)) - 1
    while left:
        reach = frontier = left & -left
        while frontier:
            frontier = union_of(joined, frontier) & ~reach
            reach |= frontier
        out.append(reach)
        left &= ~reach
    return tuple(sorted(out))


def _check_size(glob: Globalization, sel: SelectorMap) -> None:
    # another size would raise IndexError, or be read in part
    points = glob.source.group.order * glob.source.space.size
    for what, size in (("relation", glob.relation.size), ("selector", sel.size)):
        if size != points:
            raise ValueError(f"{what} has {size} points, the product {points}")


def transversal_topology(glob: Globalization, sel: SelectorMap) -> BorelReport:
    """Push the transversal's subspace topology through the class map
    and compare Borel structures with the quotient."""
    _check_size(glob, sel)
    pa, cid = glob.source, glob.relation.class_id
    n_classes = glob.num_classes

    t_mask = transversal(sel)
    # entry i is the class of the i-th transversal point
    classes_of_t = [cid[p] for p in iter_bits(t_mask)]
    if sorted(classes_of_t) != list(range(n_classes)):
        raise AxiomViolation(
            "transversal does not meet every class exactly once",
            tuple(classes_of_t),
        )

    # the neighbourhood of p = (g, x) in the product is N(x) in slice g
    size, nbrs = pa.space.size, pa.space.nbrs
    tau_nbrs = [0] * n_classes
    for p in iter_bits(t_mask):
        g, x = divmod(p, size)
        tau_nbrs[cid[p]] = image_of(cid, nbrs[x] << (g * size) & t_mask)
    tau = FinTop.from_neighborhoods(tau_nbrs)

    rb = ReportBuilder("transversal-topology")
    # the quotient topology lies inside tau when each of its minimal
    # neighborhoods is tau-open; the witnesses are those that are not
    missing = [u for u in glob.topology.nbrs if not topo.is_open(tau, u)]
    rb.check(
        "transversal topology extends the quotient topology",
        not missing,
        tuple(missing[:8]),
    )
    rb.info(
        "open-set counts (quotient vs transversal)",
        (len(glob.topology.opens), len(tau.opens)),
        "strictness of the extension is not asserted",
    )

    quotient_atoms = _quotient_atoms(glob)
    rb.check(
        "quotient Borel structure equals the transversal Borel algebra",
        quotient_atoms == tau.atoms,
        (2 ** len(quotient_atoms), 2 ** len(tau.atoms)),
    )

    image = mask_of(glob.embedding)
    rb.check("embedded image is Borel", topo.is_borel(tau, image), (image,))
    pullback = mask_of(p for p in iter_bits(t_mask) if (image >> cid[p]) & 1)
    rb.check(
        "transversal part of the image equals the definedness graph part",
        pullback == pa.graph & t_mask,
        (pullback, pa.graph & t_mask),
    )

    # the image's subspace atoms: its classes by tau-neighborhood trace
    by_trace: dict[int, int] = {}
    for c in iter_bits(image):
        by_trace[tau.nbrs[c] & image] = by_trace.get(tau.nbrs[c] & image, 0) | 1 << c
    image_atoms = tuple(sorted(by_trace.values()))
    carrier_atoms = tuple(sorted(
        image_of(glob.embedding, atom) for atom in pa.space.atoms
    ))
    rb.check(
        "Borel algebra of the embedded image matches the carrier's",
        image_atoms == carrier_atoms,
        (2 ** len(image_atoms), 2 ** len(carrier_atoms)),
    )

    bad_meas = _measurability_failures(tau, glob.action)
    rb.check(
        "every translation is Borel measurable for the transversal topology",
        not bad_meas,
        tuple(bad_meas[:8]),
    )

    return BorelReport(tau, quotient_atoms, rb.build())


def _measurability_failures(tau: FinTop, action) -> list[tuple[int, int]]:
    # Translation by g is measurable exactly when it carries each tau-atom
    # into one tau-atom.  Classes share an atom when they share a
    # neighborhood, so then the (source, target) neighborhood pairs are as
    # many as the atoms.  Otherwise the preimage of atom B is not Borel
    # exactly when the image of an atom that g splits meets B: the
    # witnesses (g, B), by g and then in the atom order.
    nbrs, atoms = tau.nbrs, tau.atoms
    bad = []
    for g, row in enumerate(action):
        if len(set(zip(nbrs, map(nbrs.__getitem__, row)))) == len(atoms):
            continue
        split = 0
        for atom in atoms:
            moved = image_of(row, atom)
            if len({nbrs[d] for d in iter_bits(moved)}) > 1:
                split |= moved
        bad += [(g, atom) for atom in atoms if atom & split]
    return bad


def action_continuity_table(
    glob: Globalization, brep: BorelReport
) -> tuple[tuple[tuple[bool, ...], ...], Report]:
    """Where each translation is continuous for the transversal
    topology; failures are facts about the instance, not errors."""
    tau = brep.tau
    nbrs = tau.nbrs
    rows = []
    rb = ReportBuilder("translation-continuity")
    for g in glob.source.group.elements():
        row = []
        act_g = glob.action[g]
        for c in range(glob.num_classes):
            moved = image_of(act_g, nbrs[c])
            row.append(moved & ~nbrs[act_g[c]] == 0)
        rows.append(tuple(row))
        failures = tuple(c for c, ok in enumerate(row) if not ok)
        if failures:
            rb.info(
                f"translation by {g} discontinuous at classes",
                failures,
            )
    rb.info(
        "continuity failures localized",
        (sum(1 for row in rows for ok in row if not ok),),
    )
    return tuple(rows), rb.build()


def _reduction_failures(rel: EqRel, target: EqRel, f) -> tuple[tuple[int, int], ...]:
    # f reduces rel to target when target pulled back along f is rel: one
    # partition comparison.  Only a failure scans the pairs (a, b), in
    # order, for the first 8 at which the two relations disagree.
    pulled = [target.class_id[y] for y in f]
    if EqRel(rel.size, pulled) == rel:
        return ()
    return tuple(islice(disagreements(rel.class_id, pulled), 8))


def bireducibility_report(glob: Globalization, sel: SelectorMap) -> Report:
    """Orbit equivalence on the carrier and class equivalence on the
    envelope reduce to each other: the embedding one way, the selector's
    second coordinate the other way.  Each direction is one partition
    comparison; only a failure scans pairs, for its first 8 witnesses."""
    _check_size(glob, sel)
    pa = glob.source
    size = pa.space.size
    rb = ReportBuilder("bireducibility")
    carrier = pa.orbit_relation
    # the row of class c lists its translates: column c of the action
    envelope = from_relation(glob.num_classes, list(zip(*glob.action)))

    bad = _reduction_failures(carrier, envelope, glob.embedding)
    rb.check("embedding reduces carrier orbits to envelope classes", not bad, bad)

    coordinate = [q % size for q in sel.image]
    back = [coordinate[p] for p in glob.relation.least]
    multi = sorted({
        c for c, x in zip(glob.relation.class_id, coordinate) if x != back[c]
    })
    if multi:
        raise AxiomViolation(
            "selector second coordinate is not constant on classes", tuple(multi)
        )

    bad = _reduction_failures(envelope, carrier, back)
    rb.check(
        "selector coordinate reduces envelope classes to carrier orbits", not bad, bad
    )
    return rb.build()


def orbit_homeomorphism_report(pa: PartialAction) -> Report:
    """Each lifted orbit is enumerated by the acting set of its base
    point: h goes to (g * inv(h), h.x), with inverse (j, y) going to
    inv(j) * g, and the enumeration is a homeomorphism onto the orbit's
    subspace (both sides are discrete at finite scale).

    The source is a subspace of the discrete group, so a bijection is a
    homeomorphism exactly when the orbit's subspace of the product is
    discrete: decided once per class, on class labels, with N(y) in slice
    j the neighbourhood of (j, y).  Once the stated inverse holds, distinct
    h land in distinct slices, so only moves that are not a function fail it."""
    group, space = pa.group, pa.space
    size = space.size
    rb = ReportBuilder("orbit-enumeration")
    rel = pa.lifted_orbits
    class_id = rel.class_id
    members: list[list[int]] = [[] for _ in range(rel.num_classes)]
    for p, c in enumerate(class_id):
        members[c].append(p)
    # no member's neighborhood holds another member: no (j, y) has a
    # point of its class in N(y) - {y} in slice j
    discrete_orbit = [True] * rel.num_classes
    for j in group.elements():
        cid = class_id[j * size:(j + 1) * size]
        for y, (c, n) in enumerate(zip(cid, space.nbrs)):
            if image_of(cid, n ^ 1 << y) >> c & 1:
                discrete_orbit[c] = False

    bad_bij: list[tuple] = []
    bad_inv: list[tuple] = []
    bad_homeo: list[tuple] = []
    inv, mul, acting = group.inv, group.mul, pa.acting
    for g in group.elements():
        mul_g = mul[g]
        # h goes to p in slice j = g * inv(h), and back to inv(j) * g: the
        # inverse depends on (g, h) alone, so the h it misses are read
        # once per g (none on a group table)
        missed_h = mask_of(h for h in group.elements() if mul[inv[mul_g[inv[h]]]][g] != h)
        for x, xmoves in enumerate(pa.moves):
            c = class_id[g * size + x]
            image = [mul_g[inv[h]] * size + y for h, y in xmoves]
            if sorted(image) != members[c]:
                bad_bij.append((g, x))
            elif acting[x] & missed_h:
                # the p whose h is missed, in the order of members[c]
                bad_inv += [(g, x, p) for p, (h, _) in sorted(zip(image, xmoves))
                            if (missed_h >> h) & 1]
            elif not discrete_orbit[c]:
                bad_homeo.append((g, x))
    rb.check("enumeration is a bijection onto the orbit", not bad_bij, tuple(bad_bij))
    rb.check("stated inverse really inverts it", not bad_inv, tuple(bad_inv[:8]))
    rb.check(
        "enumeration is a homeomorphism for the subspace topologies",
        not bad_homeo,
        tuple(bad_homeo),
    )
    return rb.build()
