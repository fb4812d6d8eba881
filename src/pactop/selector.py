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
from .topology import FinTop, iter_bits, mask_of


class SelectorMap(Record):
    """Idempotent point map on ``range(size)``; classes are the fibers."""

    _fields = ("size", "image")
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
        self._set("image", image)


def is_selector_for(sel: SelectorMap, rel: EqRel) -> bool:
    """Selector laws: values stay in class, and two points share a value
    exactly when they share a class."""
    if sel.size != rel.size:
        return False
    cid = rel.class_id
    if not all(cid[x] == cid[y] for x, y in enumerate(sel.image)):
        return False
    # Each class maps into itself, so it has one value exactly when
    # there are as many values as classes.
    return len(set(sel.image)) == rel.num_classes


def transversal(sel: SelectorMap) -> int:
    """Fixed-point set: by idempotency, the image, one point per fiber."""
    return mask_of(sel.image)


def normalized_selector(pa: PartialAction) -> SelectorMap:
    """Selector for the lifted orbit relation, normalized onto the
    identity slice wherever the group element is defined.

    Verifies the identity-slice description of the lifted orbits:
    (identity, x) is related to (g, y) exactly when g is defined at y
    and moves it to x.  So the identity-slice members of the class of
    (g, y) must be [g.y] where g acts at y and none elsewhere; the
    lexicographically first failing (x, g, y) is the witness.  Falls
    back to the least-member selector on classes that never meet the
    identity slice.  Once the description holds, a class that meets the
    identity slice maps whole to its one member there and any other
    class to its least member, so the map is a selector for the lifted
    orbits and is not checked again.
    """
    group, space = pa.group, pa.space
    size = space.size
    e = group.identity
    rel = pa.lifted_orbits
    class_id = rel.class_id

    # on_slice[c] lists the x with (identity, x) in class c
    on_slice: dict[int, list[int]] = {}
    for x in space.points():
        on_slice.setdefault(class_id[e * size + x], []).append(x)
    image = [rel.least[c] for c in class_id]
    bad = []
    for g in group.elements():
        for y in space.points():
            p = g * size + y
            direct = []
            if (pa.acting[y] >> g) & 1:
                direct = [pa.act(g, y)]
                image[p] = e * size + direct[0]
            related = on_slice.get(class_id[p], [])
            if related != direct:
                bad += [(x, g, y) for x in set(related) ^ set(direct)]
    if bad:
        raise AxiomViolation(
            "identity-slice description of lifted orbits failed", min(bad)
        )
    return SelectorMap(rel.size, tuple(image))


class BorelReport(Record):
    """Transversal topology, the atoms of the quotient Borel structure
    it is compared on, and the clause-by-clause report."""

    _fields = ("tau", "quotient_atoms", "report")
    tau: FinTop
    quotient_atoms: tuple[int, ...]
    report: Report

    def __init__(self, tau: FinTop, quotient_atoms: tuple[int, ...], report: Report):
        self._set("tau", tau)
        self._set("quotient_atoms", quotient_atoms)
        self._set("report", report)


def _quotient_atoms(glob: Globalization) -> tuple[int, ...]:
    # A class set is Borel in the quotient when its preimage is a union
    # of product atoms.  So the classes meeting one product atom share
    # an atom, and an atom is a class set joined by such overlaps.
    atoms: list[int] = []
    cid = glob.relation.class_id
    for product_atom in glob.product.atoms:
        met = mask_of(cid[p] for p in iter_bits(product_atom))
        for a in [a for a in atoms if a & met]:
            atoms.remove(a)
            met |= a
        atoms.append(met)
    return tuple(sorted(atoms))


def _check_size(glob: Globalization, sel: SelectorMap) -> None:
    # another size would raise IndexError, or be read in part
    if sel.size != glob.relation.size:
        raise ValueError(
            f"selector has {sel.size} points, the product {glob.relation.size}"
        )


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

    tau_nbrs = [0] * n_classes
    for p in iter_bits(t_mask):
        tau_nbrs[cid[p]] = mask_of(
            cid[q] for q in iter_bits(glob.product.nbrs[p] & t_mask)
        )
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
        mask_of(glob.embedding[x] for x in iter_bits(atom))
        for atom in pa.space.atoms
    ))
    rb.check(
        "Borel algebra of the embedded image matches the carrier's",
        image_atoms == carrier_atoms,
        (2 ** len(image_atoms), 2 ** len(carrier_atoms)),
    )

    bad_meas = []
    for g in pa.group.elements():
        for atom in tau.atoms:
            pre = mask_of(
                c for c in range(n_classes) if (atom >> glob.action[g][c]) & 1
            )
            if not topo.is_borel(tau, pre):
                bad_meas.append((g, atom))
    rb.check(
        "every translation is Borel measurable for the transversal topology",
        not bad_meas,
        tuple(bad_meas[:8]),
    )

    return BorelReport(tau, quotient_atoms, rb.build())


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
        for c in range(glob.num_classes):
            moved = mask_of(glob.action[g][d] for d in iter_bits(nbrs[c]))
            row.append(moved & ~nbrs[glob.action[g][c]] == 0)
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
    discrete: decided once per class, on class labels."""
    group, space = pa.group, pa.space
    size = space.size
    rb = ReportBuilder("orbit-enumeration")
    rel = pa.lifted_orbits
    class_id = rel.class_id
    members: list[list[int]] = [[] for _ in range(rel.num_classes)]
    for p, c in enumerate(class_id):
        members[c].append(p)
    nbrs = pa.product.nbrs
    discrete_orbit = [
        all(q == p or class_id[q] != c for p in ps for q in iter_bits(nbrs[p]))
        for c, ps in enumerate(members)
    ]

    # moves[x] pairs each h acting at x with (inv(h), h.x)
    inv, mul = group.inv, group.mul
    moves = []
    for x in space.points():
        hs = iter_bits(pa.acting[x])
        moves.append((hs, [(inv[h], pa.act(h, x)) for h in hs]))
    back = [mul[inv[j]] for j in group.elements()]  # back[j][g] = inv(j) * g

    bad_bij: list[tuple] = []
    bad_inv: list[tuple] = []
    bad_homeo: list[tuple] = []
    for g in group.elements():
        mul_g = mul[g]
        for x, (hs, xmoves) in enumerate(moves):
            c = class_id[g * size + x]
            image = [mul_g[ih] * size + y for ih, y in xmoves]
            if sorted(image) != members[c]:
                bad_bij.append((g, x))
                continue
            rho = dict(zip(hs, image))  # h -> (g * inv(h), h.x)
            missed = [p for p in members[c] if rho.get(back[p // size][g]) != p]
            bad_inv += [(g, x, p) for p in missed]
            if not missed and not discrete_orbit[c]:
                bad_homeo.append((g, x))
    rb.check("enumeration is a bijection onto the orbit", not bad_bij, tuple(bad_bij))
    rb.check("stated inverse really inverts it", not bad_inv, tuple(bad_inv[:8]))
    rb.check(
        "enumeration is a homeomorphism for the subspace topologies",
        not bad_homeo,
        tuple(bad_homeo),
    )
    return rb.build()
