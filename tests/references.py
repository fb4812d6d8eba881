"""Mask-row forms of the engine's relation builders and orbit checks,
kept as the references their label-row forms are compared against; the
row form of the transform-identity suite, which enumerates every point
set and group part where the engine decides each element; the square
and pair-scan forms of the pair-shaped checks (orbit relation open in
the square, separation, bireducibility); the
definedness graph tested for openness in the product; the
two pair scans the shared ``relations.disagreements`` replaced (the
lift-orbit relation's first pair, the reductions' first 8); the inputs
the comparisons run on (one-entry edits, lifted classes merged or
split); the saturation check every envelope built from a total
action must pass; the sweep generator that checks the total action
and builds the restriction again at every carrier; ``json.dumps``'s
text of a run's JSON report, the reference for ``cli._render``;
``classes``, the member mask of each class of a relation;
``min_selector``, the selector onto each class's least member;
``is_selector_for``, the selector laws of a map against a relation; and
``fresh``, the copy of an action with none of its tables cached.

Each relation reference reads one product-wide bitmask row per point
and scans the axioms on masks, as the engine first did; the transform
reference keeps one point mask per (point set, group part); the
pair-shaped references build the square or compare every pair.  Slow is
fine: these run on desk-scale instances only.
"""

from __future__ import annotations

import itertools
import json
import random
from operator import and_, or_

import pactop.topology as topo
from pactop import PartialAction, induced
from pactop import globalize, paction, selector, vaught
from pactop.errors import AxiomViolation, LimitExceeded, NotAnAction
from pactop.relations import EqRel
from pactop.reports import ReportBuilder
from pactop.selector import SelectorMap
from pactop.topology import iter_bits, mask_of


def classes(rel: EqRel) -> tuple[int, ...]:
    """Bitmask of the members of each class of ``rel``, by class id."""
    masks = [0] * rel.num_classes
    for x, c in enumerate(rel.class_id):
        masks[c] |= 1 << x
    return tuple(masks)


def min_selector(rel: EqRel) -> SelectorMap:
    """Send every point to the least member of its class, ``rel.least``."""
    return SelectorMap(rel.size, tuple(rel.least[c] for c in rel.class_id))


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


def fresh(pa: PartialAction) -> PartialAction:
    """A copy of ``pa`` through its constructor, so nothing is cached."""
    return PartialAction(pa.group, pa.space, pa.dom, pa.maps)


def report_json(label: str, command: str, data: dict, reports) -> str:
    """The JSON report of a run, written by ``json.dumps``: what
    ``cli._render`` must print byte for byte."""
    ok = all(r.ok for r in reports)
    return json.dumps({
        "label": label,
        "command": command,
        "overall": "pass" if ok else "fail",
        "data": data,
        "reports": [r.to_dict() for r in reports],
    }, indent=2, sort_keys=True)


def from_masks(size: int, rows) -> EqRel:
    """``from_relation`` on bitmask rows: ``rows[x]`` is the mask of the
    points related to x.  Same checks, order and messages."""
    if len(rows) != size:
        raise ValueError(f"{len(rows)} rows given for {size} points")
    full = (1 << size) - 1
    for x in range(size):
        if not 0 <= rows[x] <= full:
            raise ValueError(f"row of {x} is not within range({size})")
    for x in range(size):
        if not (rows[x] >> x) & 1:
            raise ValueError(f"not reflexive at {x}")
    columns = [0] * size
    for x in range(size):
        for y in iter_bits(rows[x]):
            columns[y] |= 1 << x
    for x in range(size):
        diff = rows[x] ^ columns[x]
        if diff:
            y = (diff & -diff).bit_length() - 1
            raise ValueError(f"not symmetric at ({x}, {y})")
    for x in range(size):
        for y in iter_bits(rows[x]):
            extra = rows[y] & ~rows[x]
            if extra:
                z = (extra & -extra).bit_length() - 1
                raise ValueError(f"not transitive at ({x}, {y}, {z})")
    return EqRel(size, tuple(rows))


def enveloping_relation(pa: PartialAction) -> EqRel:
    """The gluing relation, one product-wide mask row per (g, x)."""
    group, size = pa.group, pa.space.size
    rows = []
    for g in group.elements():
        for x in pa.space.points():
            # h = g*k with x in dom(k), so inv(h)*g = inv(k) moves x.
            row = 0
            for h in group.elements():
                k = group.mul[group.inv[g]][h]
                if (pa.dom[k] >> x) & 1:
                    row |= 1 << (h * size + pa.act(group.inv[k], x))
            rows.append(row)
    try:
        return from_masks(group.order * size, rows)
    except ValueError as exc:
        raise AxiomViolation(f"gluing relation is not an equivalence: {exc}") from exc


def orbit_equivalence(pa: PartialAction, name: str = "orbit relation") -> EqRel:
    """The orbit relation on the ``orbits`` mask rows; ``name`` heads the
    message of the AxiomViolation that a failed axiom raises."""
    try:
        return from_masks(pa.space.size, pa.orbits)
    except ValueError as exc:
        raise AxiomViolation(f"{name} is not an equivalence: {exc}") from exc


def lifted_orbits(pa: PartialAction) -> EqRel:
    """The orbit relation of the lifted action, built as a table, on its
    ``orbits`` mask rows: the independent form of the engine's
    ``PartialAction.lifted_orbits``, which raises as the gluing relation
    it is."""
    return orbit_equivalence(paction.lifted_action(pa), "gluing relation")


def normalized_selector(pa: PartialAction, rel: EqRel) -> SelectorMap:
    """The normalized selector, checking the identity-slice description
    of the lifted orbit relation ``rel`` at every (x, g, y)."""
    group, space = pa.group, pa.space
    size = space.size
    e = group.identity

    for x in space.points():
        for g in group.elements():
            for y in space.points():
                related = rel.class_id[e * size + x] == rel.class_id[g * size + y]
                direct = bool(
                    (pa.acting[y] >> g) & 1 and pa.act(g, y) == x
                )
                if related != direct:
                    raise AxiomViolation(
                        "identity-slice description of lifted orbits failed",
                        (x, g, y),
                    )

    base = min_selector(rel)
    image = list(base.image)
    for g in group.elements():
        for x in space.points():
            if (pa.acting[x] >> g) & 1:
                image[g * size + x] = e * size + pa.act(g, x)
    sel = SelectorMap(rel.size, tuple(image))
    if not is_selector_for(sel, rel):
        raise AxiomViolation("normalized map is not a selector for the lifted orbits")
    return sel


def orbit_homeomorphism_report(pa: PartialAction, rel: EqRel):
    """The orbit-enumeration report on class masks of the lifted orbit
    relation ``rel``, with the homeomorphism clause read from
    ``is_homeomorphism`` at every (g, x)."""
    group, space = pa.group, pa.space
    size = space.size
    rb = ReportBuilder("orbit-enumeration")
    group_top = topo.discrete(group.order)
    class_masks = classes(rel)

    bad_bij: list[tuple] = []
    bad_inv: list[tuple] = []
    bad_homeo: list[tuple] = []
    for g in group.elements():
        for x in space.points():
            gx = pa.acting[x]
            o_mask = class_masks[rel.class_id[g * size + x]]
            rho = {
                h: group.mul[g][group.inv[h]] * size + pa.act(h, x)
                for h in iter_bits(gx)
            }
            if mask_of(rho.values()) != o_mask or len(set(rho.values())) != len(rho):
                bad_bij.append((g, x))
                continue
            ok_inv = True
            for p in iter_bits(o_mask):
                j = p // size
                h = group.mul[group.inv[j]][g]
                if not (gx >> h) & 1 or rho[h] != p:
                    ok_inv = False
                    bad_inv.append((g, x, p))
            if not ok_inv:
                continue
            if not topo.is_homeomorphism(rho, group_top, gx, pa.product, o_mask):
                bad_homeo.append((g, x))
    rb.check("enumeration is a bijection onto the orbit", not bad_bij, tuple(bad_bij))
    rb.check("stated inverse really inverts it", not bad_inv, tuple(bad_inv[:8]))
    rb.check(
        "enumeration is a homeomorphism for the subspace topologies",
        not bad_homeo,
        tuple(bad_homeo),
    )
    return rb.build()


def graph_open(pa: PartialAction) -> bool:
    """``PartialAction.graph_open`` as first written: the definedness
    graph tested for openness in the group-indexed product itself."""
    return topo.is_open(pa.product, pa.graph)


def _no_product(*args):
    raise AssertionError("the group-indexed product was built")


def validate_without_product(pa: PartialAction, monkeypatch) -> tuple[dict, dict]:
    """``validate`` on a fresh copy of ``pa`` with
    ``topology.product_with_discrete`` patched to raise, and on another
    whose ``graph_open`` is read from the product, as dicts."""
    old = fresh(pa)
    vars(old)["graph_open"] = graph_open(old)
    expected = paction.validate(old).to_dict()
    with monkeypatch.context() as patched:
        patched.setattr(topo, "product_with_discrete", _no_product)
        return paction.validate(fresh(pa)).to_dict(), expected


def effros_report(pa: PartialAction):
    """The orbit-class-structure report with its first flag read on the
    square: the orbit rows placed as row x of ``topo.product(space,
    space)`` and tested for openness there."""
    rb = ReportBuilder("orbit-class-structure")
    space = pa.space
    size = space.size

    square = topo.product(space, space)
    pairs = 0
    for x in space.points():
        pairs |= pa.orbits[x] << (x * size)
    rel_open = topo.is_open(square, pairs)
    orb_open = all(topo.is_open(space, o) for o in pa.orbits)
    t0 = separation(pa.orbit_quotient).t0

    rb.info("orbit relation open in the square", (rel_open,))
    rb.info("every orbit open", (orb_open,))
    rb.info("orbit quotient T0", (t0,))
    if space == topo.discrete(size):
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


def separation(t) -> topo.SeparationFlags:
    """T0/T1/T2 by their pairwise definitions on minimal neighborhoods:
    no two equal, no one holding another point, no two meeting."""
    nbrs = t.nbrs
    t0 = t1 = t2 = True
    for x in t.points():
        for y in range(x + 1, t.size):
            if nbrs[x] == nbrs[y]:
                t0 = False
            if nbrs[x] & (1 << y) or nbrs[y] & (1 << x):
                t1 = False
            if nbrs[x] & nbrs[y]:
                t2 = False
    return topo.SeparationFlags(t0, t1, t2)


def envelope_classes(glob) -> EqRel:
    """The envelope's class relation on mask rows: class c is related to
    every translate of it."""
    columns = zip(*glob.action)
    return from_masks(glob.num_classes, [mask_of(col) for col in columns])


def coordinate_spread(glob, sel: SelectorMap) -> tuple[int, ...]:
    """The classes on which the selector's second coordinate takes more
    than one value: each class's coordinates gathered in a set."""
    size = glob.source.space.size
    values = [set() for _ in range(glob.num_classes)]
    for p in range(glob.relation.size):
        values[glob.relation.class_id[p]].add(sel.image[p] % size)
    return tuple(c for c, vals in enumerate(values) if len(vals) != 1)


def bireducibility_report(glob, sel: SelectorMap, envelope: EqRel | None = None):
    """The bireducibility report scanning every pair of points, then of
    classes, for the first 8 witnesses in each direction, against the
    envelope class relation ``envelope`` (``envelope_classes(glob)`` when
    omitted)."""
    pa = glob.source
    size = pa.space.size
    rb = ReportBuilder("bireducibility")
    carrier = pa.orbit_relation
    if envelope is None:
        envelope = envelope_classes(glob)
    emb = glob.embedding

    bad_fwd = [
        (x, y) for x in pa.space.points() for y in pa.space.points()
        if (carrier.class_id[x] == carrier.class_id[y])
        != (envelope.class_id[emb[x]] == envelope.class_id[emb[y]])
    ]
    rb.check(
        "embedding reduces carrier orbits to envelope classes",
        not bad_fwd,
        tuple(bad_fwd[:8]),
    )
    multi = coordinate_spread(glob, sel)
    if multi:
        raise AxiomViolation(
            "selector second coordinate is not constant on classes", multi
        )
    back = [sel.image[p] % size for p in glob.relation.least]
    bad_bwd = [
        (c, d) for c in range(glob.num_classes) for d in range(glob.num_classes)
        if (envelope.class_id[c] == envelope.class_id[d])
        != (carrier.class_id[back[c]] == carrier.class_id[back[d]])
    ]
    rb.check(
        "selector coordinate reduces envelope classes to carrier orbits",
        not bad_bwd,
        tuple(bad_bwd[:8]),
    )
    return rb.build()


def first_disagreement(rel: EqRel, other: EqRel) -> tuple[int, int] | None:
    """The first pair (p, q), in order, related by exactly one of two
    relations on the same points, scanned as the lift-orbit-relation
    check first did; None when the relations are equal."""
    n = rel.size
    return next(
        (
            (p, q) for p in range(n) for q in range(n)
            if (rel.class_id[p] == rel.class_id[q])
            != (other.class_id[p] == other.class_id[q])
        ),
        None,
    )


def reduction_failures(rel: EqRel, target: EqRel, f) -> tuple[tuple[int, int], ...]:
    """The first 8 pairs (a, b), in order, at which ``rel`` and
    ``target`` pulled back along ``f`` disagree, scanned as the
    bireducibility check first did; () when f is a reduction."""
    pulled = [target.class_id[y] for y in f]
    if EqRel(rel.size, pulled) == rel:
        return ()
    cid, points = rel.class_id, range(rel.size)
    bad = (
        (a, b) for a in points for b in points
        if (cid[a] == cid[b]) != (pulled[a] == pulled[b])
    )
    return tuple(itertools.islice(bad, 8))


def changed_bireducibility(pa, changed: str, change, rng, monkeypatch):
    """The engine's bireducibility report and the pair scan's on a fresh
    copy of the valid action ``pa``, with the ``changed`` relation, the
    "carrier" orbit relation or the "envelope" class relation, replaced
    by the class ids ``change(rel, rng)`` gives; None when that relation
    has one class.  The engine reads the new envelope relation through
    ``monkeypatch``."""
    pa = fresh(pa)
    glob, sel = globalize.build(pa), selector.normalized_selector(pa)
    envelope = envelope_classes(glob)
    rel = pa.orbit_relation if changed == "carrier" else envelope
    if rel.num_classes < 2:
        return None
    rel = EqRel(rel.size, change(rel, rng))
    if changed == "carrier":
        vars(pa)["orbit_relation"] = rel
    else:
        envelope = rel
        monkeypatch.setattr(selector, "from_relation", lambda *_: rel)
    got = selector.bireducibility_report(glob, sel)
    return got, bireducibility_report(glob, sel, envelope)


def count_witnesses(report, seen: dict) -> None:
    """Count each check of ``report`` in ``seen`` by its status and
    whether it shows the full 8 witnesses."""
    for check in report.checks:
        kind = (check.status, len(check.witness) == 8)
        seen[kind] = seen.get(kind, 0) + 1


def transform_tables(pa: PartialAction) -> tuple[list[list[int]], list[list[int]]]:
    """delta[A][V] and star[A][V] for every point set A and group part V,
    one point mask per entry.  Each element's preimage of every A comes
    from that of A minus its top point; each entry from the entry of V
    minus its top element g, joined with g's preimage of A (delta) or
    met with that preimage plus the points g is undefined at (star).
    Index 0, the empty part, holds the seeds: no point in delta, every
    point in star."""
    full = pa.space.full
    pre = []  # pre[g][A]
    for row in pa.preimages:
        col = [0]
        for p in row:
            col += [s | p for s in col]
        pre.append(col)
    undef = [vaught._undefined(pa, g) for g in pa.group.elements()]
    delta, star = [], []
    for a in range(1 << pa.space.size):
        d, s = [0], [full]
        for col, u in zip(pre, undef):
            p = col[a]
            d += [w | p for w in d]
            p |= u
            s += [w & p for w in s]
        delta.append(d)
        star.append(s)
    return delta, star


def _subset_or(acc: list[int]) -> None:
    """In place, acc[V] becomes the union of acc[U] over U inside V: the
    subset-sum (zeta) transform, one bit at a time, as strided or
    contiguous slice operations, whichever are fewer."""
    n = len(acc)
    b = 1
    while b < n:
        step = 2 * b
        if b * step <= n:
            for j in range(b, step):
                acc[j::step] = map(or_, acc[j::step], acc[j - b::step])
        else:
            for lo in range(b, n, step):
                acc[lo:lo + b] = map(or_, acc[lo:lo + b], acc[lo - b:lo])
        b = step


# Most (point set, group part) combinations the row suite enumerates
TRANSFORM_LIMIT = 1 << 20


def transform_identities_report(pa: PartialAction):
    """The identity suite on ``transform_tables``, comparing whole rows
    of point masks one point set at a time and listing as witnesses the
    (A, V) of a row that differs: the engine's checks, in its order,
    with its info line, decided by enumeration up to ``TRANSFORM_LIMIT``
    combinations."""
    size, full, order = pa.space.size, pa.space.full, pa.group.order
    count = (1 << size) * ((1 << order) - 1)
    if count > TRANSFORM_LIMIT:
        raise LimitExceeded("transform combinations", count, TRANSFORM_LIMIT)
    rb = ReportBuilder("transform-identities")
    delta, star = transform_tables(pa)
    # Per part V, the points whose acting set misses V.
    allowed = [full]
    for g in pa.group.elements():
        u = vaught._undefined(pa, g)
        allowed += [w & u for w in allowed]
    empty = [0] * (1 << order)

    found = [[] for _ in vaught._IDENTITIES]  # witnesses per check
    dual, union, inter, vacuous, basis = found

    def compare(bad, a, got, want):
        # whole rows; a row that differs lists its (A, V) witnesses
        if got != want and len(bad) < 8:
            bad.extend((a, v) for v in range(1, len(got)) if got[v] != want[v])

    for a in range(1 << size):
        low = a & -a  # lowest point in A; 0 for the empty set
        out = ~a & (a + 1)  # lowest point outside A
        # entries stay inside the carrier, so full ^ d is the complement of d
        compare(dual, a, list(map(full.__xor__, delta[a])), star[full ^ a])
        compare(union, a, delta[a],
                list(map(or_, delta[a ^ low], delta[low])) if a else empty)
        if a != full:
            compare(inter, a, star[a], list(map(and_, star[a | out], star[full ^ out])))
        compare(vacuous, a, list(map(and_, star[a], map(or_, delta[a], allowed))), star[a])
        acc = list(map(and_, star[a], delta[a]))
        _subset_or(acc)
        compare(basis, a, acc, delta[a])
    for name, bad in zip(vaught._IDENTITIES, found):
        rb.check(name, not bad, tuple(bad[:8]))
    rb.info(
        "combinations checked",
        (count, (1 << order) - 1),
        "point sets times group parts, both transforms",
    )
    return rb.build()


def on_lifted_relation(reference):
    """``reference(pa, rel)`` as a check of ``pa`` alone: ``rel`` is the
    lifted orbit relation the mask ``enveloping_relation`` builds, so an
    ill-formed table fails at the step, and names the entry, where the
    engine's check fails."""
    return lambda pa: reference(pa, enveloping_relation(pa))


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type, message and witness of
    what it raised."""
    try:
        return fn(*args)
    except (AxiomViolation, KeyError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def one_entry_edits(instances, count: int, seed: int) -> list[PartialAction]:
    """``count`` seeded copies of members of ``instances`` (each with a
    point) with one entry changed: a map entry set to another point or
    to undefined, or one bit of a domain flipped.  Many are ill-formed:
    a map then misses or overshoots its domain."""
    rng = random.Random(seed)
    pool = [pa for pa in instances if pa.space.size]
    out = []
    while len(out) < count:
        pa = rng.choice(pool)
        size, g = pa.space.size, rng.randrange(pa.group.order)
        dom, maps = list(pa.dom), [list(row) for row in pa.maps]
        if rng.random() < 0.7:
            x = rng.randrange(size)
            maps[g][x] = rng.choice([y for y in range(-1, size) if y != maps[g][x]])
        else:
            dom[g] ^= 1 << rng.randrange(size)
        out.append(
            PartialAction(pa.group, pa.space, tuple(dom), tuple(map(tuple, maps)))
        )
    return out


def merge_two(rel: EqRel, rng: random.Random) -> tuple[int, ...]:
    """Class ids with two seeded classes merged."""
    a, b = rng.sample(range(rel.num_classes), 2)
    return tuple(a if c == b else c for c in rel.class_id)


def split_two(rel: EqRel, rng: random.Random) -> tuple[int, ...]:
    """Class ids with one seeded member of each of two seeded classes
    moved to a class of its own; one translation can then break two
    classes."""
    cid = list(rel.class_id)
    members = [[p for p, d in enumerate(cid) if d == c] for c in range(rel.num_classes)]
    for k, c in enumerate(rng.sample(range(rel.num_classes), 2)):
        if len(members[c]) > 1:
            cid[rng.choice(members[c])] = -1 - k
    return tuple(cid)


def check_saturation(space, rows, carrier: int, glob) -> tuple[bool, bool]:
    """Assert that ``glob``, the envelope of the restriction to
    ``carrier`` of the total action ``rows`` on the space Y, is the
    saturation G.X.

    By uniqueness of the enveloping action (Abadie 2003) the class of
    (g, x) corresponds to g.x in G.X, equivariantly; the quotient
    topology is the subspace topology of G.X when X is open in Y, and
    finer than it otherwise.  Returns whether X is open in Y, and
    whether the quotient topology is strictly finer."""
    pa = glob.source
    points = list(iter_bits(carrier))
    image = {}
    for g in pa.group.elements():
        for i, p in enumerate(points):
            c = glob.relation.class_id[g * pa.space.size + i]
            assert image.setdefault(c, rows[g][p]) == rows[g][p], (pa, g, i)
    saturation = {rows[g][p] for g in pa.group.elements() for p in points}
    assert len(image) == glob.num_classes == len(saturation), pa
    assert set(image.values()) == saturation, pa
    for g in pa.group.elements():
        for c in range(glob.num_classes):
            assert image[glob.action[g][c]] == rows[g][image[c]], (pa, g, c)

    sat_mask = sum(1 << y for y in saturation)
    quotient_nbrs = [
        sum(1 << image[d] for d in iter_bits(glob.topology.nbrs[c]))
        for c in range(glob.num_classes)
    ]
    subspace_nbrs = [space.nbrs[image[c]] & sat_mask for c in range(glob.num_classes)]
    if all(space.nbrs[p] & ~carrier == 0 for p in points):
        assert quotient_nbrs == subspace_nbrs, pa
        return True, False
    # finer: every class has a smaller minimal neighbourhood
    assert all(q & ~s == 0 for q, s in zip(quotient_nbrs, subspace_nbrs)), pa
    return False, quotient_nbrs != subspace_nbrs


def induced_instances(groups, max_points: int) -> list[PartialAction]:
    """``instances.induced_instances`` as it first ran: the Cayley walk
    redone for each choice of images, then ``induced`` (so the total
    action is checked, the subspace built and the action constructed)
    at every carrier, moving on to the next images at the first
    ``NotAnAction``."""
    seen, out = set(), []
    for size in range(1, max_points + 1):
        for space in topo.all_topologies(size):
            homeos = topo.homeomorphisms(space)
            for group, gens in groups:
                for images in itertools.product(homeos, repeat=len(gens)):
                    rows = {group.identity: tuple(range(size))}
                    frontier = [group.identity]
                    while frontier:
                        g = frontier.pop()
                        for s, img in zip(gens, images):
                            h = group.mul[s][g]
                            if h not in rows:
                                rows[h] = tuple(img[y] for y in rows[g])
                                frontier.append(h)
                    rows = [rows[g] for g in group.elements()]
                    for carrier in range(1 << size):
                        try:
                            pa = induced(group, space, rows, carrier)
                        except NotAnAction:
                            break
                        if pa not in seen:
                            seen.add(pa)
                            out.append(pa)
    return out
