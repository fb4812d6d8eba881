"""Finite topological spaces stored as their specialization preorders.

Subsets of the carrier ``range(size)`` are bitmask integers throughout.
A finite topology is fully determined by the minimal open neighborhood
of each point (any family closed under union and intersection is the
up-set family of its specialization preorder; Alexandrov 1937), so a
``FinTop`` stores only those neighborhoods and every construction below
builds them directly.  The open-set family is derived on demand, for
output and for the tests' brute-force oracles.  A family read as a
topology is checked against the topology it generates, by counting.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache, reduce
from operator import or_

from .errors import InvalidSubset, LimitExceeded, has_entries, in_range
from .record import Record, cached
from .relations import EqRel, image_of, iter_bits, union_of

# Largest open-set family ``FinTop.opens`` lists; the 2**21 subsets of
# a 21-point discrete space already pass it.
OPEN_SET_LIMIT = 2_000_000


def _check_size(size: int) -> None:
    if type(size) is not int:  # a bool would pass below as 0 or 1
        raise ValueError(f"size must be an int, not {type(size).__name__}")
    if size < 0:
        raise ValueError("size must be nonnegative")


def _full(size: int) -> int:
    _check_size(size)
    return (1 << size) - 1


def _hex(mask: object) -> str:  # an int in hex, a bool or anything else by repr
    return f"{mask:#x}" if type(mask) is int else repr(mask)


def mask_of(points: Iterable[int]) -> int:
    out = 0
    for p in points:
        out |= 1 << p
    return out


class FinTop(Record):
    """Topology on ``range(size)``; ``nbrs[x]`` is the minimal open
    neighborhood of ``x``.  Equality and hashing use ``nbrs`` only.

    ``FinTop(size, opens)`` takes an open-set family, which must contain
    the empty set and the whole carrier; the topology stored is the one
    the family generates under union and intersection, so for a family
    that already is a topology, exactly that family.
    ``from_neighborhoods`` builds a topology from its neighborhoods.
    """

    size: int
    nbrs: tuple[int, ...]

    def __init__(self, size: int, opens: Iterable[int]):
        full = _full(size)
        members = list(opens)
        family = set(members)
        if 0 not in family:
            raise ValueError("missing the empty set")
        if full not in family:
            raise ValueError("missing the full carrier")
        for u in members:  # the set keeps one of True and 1, so read the list
            if not in_range(u, full + 1):
                raise ValueError(f"member {_hex(u)} outside the carrier")
        nbrs = [full] * size
        for u in family:
            for x in iter_bits(u):
                nbrs[x] &= u
        self._set("size", size)
        self._set("nbrs", tuple(nbrs))

    @classmethod
    def from_neighborhoods(cls, nbrs: Iterable[int]) -> FinTop:
        """The topology on ``range(len(nbrs))`` whose minimal
        neighborhoods are ``nbrs``.  That each ``nbrs[x]`` contains ``x``
        and the neighborhood of each of its points (the specialization
        preorder is reflexive and transitive) is the caller's contract."""
        t = cls.__new__(cls)
        nbrs = tuple(nbrs)
        t._set("size", len(nbrs))
        t._set("nbrs", nbrs)
        return t

    @cached
    def opens(self) -> tuple[int, ...]:
        """Every open set, in increasing order; computed once.  Raises
        LimitExceeded past ``OPEN_SET_LIMIT`` sets."""
        family = _up_sets(self.nbrs, OPEN_SET_LIMIT)
        if len(family) > OPEN_SET_LIMIT:
            raise LimitExceeded("open sets", len(family), OPEN_SET_LIMIT)
        family.sort()
        return tuple(family)

    @cached
    def atoms(self) -> tuple[int, ...]:
        """Atoms of the algebra the opens generate, in increasing order;
        computed once.  Two points share an atom exactly when every open
        contains both or neither, i.e. when their minimal neighborhoods
        coincide."""
        return tuple(sorted(_points_by_nbr(self.nbrs).values()))

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def points(self) -> range:
        return range(self.size)


def _points_by_nbr(nbrs: Sequence[int]) -> dict[int, int]:
    # mask of the points sharing each minimal neighborhood
    out: dict[int, int] = {}
    for x, n in enumerate(nbrs):
        out[n] = out.get(n, 0) | 1 << x
    return out


def _up_sets(nbrs: Sequence[int], limit: int) -> list[int]:
    # Points sharing a neighborhood are added together, smallest
    # neighborhoods first.  The rest of a neighborhood is then already
    # placed, and the open sets so far that contain it are exactly those
    # that stay open with the new points added.  Stops past ``limit``.
    together = _points_by_nbr(nbrs)
    family = [0]
    for n in sorted(together, key=int.bit_count):
        new = together[n]
        rest = n & ~new
        family += [u | new for u in family if u & rest == rest]
        if len(family) > limit:
            break
    return family


class SeparationFlags(Record):
    t0: bool
    t1: bool
    t2: bool


def _check_subset(t: FinTop, s: int, what: str) -> None:
    if not in_range(s, 1 << t.size):
        raise InvalidSubset(f"{what} {_hex(s)} is not within the point range", (s,))


@lru_cache(maxsize=256)
def minimal_neighborhoods(t: FinTop) -> tuple[int, ...]:
    """Minimal open neighborhood of each point, i.e. ``t.nbrs``.

    Doubles as the specialization preorder: ``y`` is in the minimal
    neighborhood of ``x`` exactly when ``x`` lies in the closure of
    ``{y}``.
    """
    return t.nbrs


def is_open(t: FinTop, mask: int) -> bool:
    _check_subset(t, mask, "set")
    return union_of(t.nbrs, mask) & ~mask == 0


def is_meager_in(t: FinTop, a: int, s: int) -> bool:
    """Whether ``a`` is meager in the subspace on ``s``.

    On a finite carrier a set is meager exactly when each of its
    singletons is nowhere dense in the subspace; the empty set is meager
    in the empty subspace (a union over nothing).
    """
    _check_subset(t, s, "subspace")
    if not in_range(a, s + 1) or a & ~s:
        raise InvalidSubset(f"set {_hex(a)} is not contained in the subspace", (a, s))
    nbrs = t.nbrs
    for x in iter_bits(a):
        # closure of {x} inside the subspace on s; x is nowhere dense
        # when no point of it has its neighborhood's trace on s inside it
        cl = mask_of(y for y in iter_bits(s) if nbrs[y] & s & (1 << x))
        if any(nbrs[y] & s & ~cl == 0 for y in iter_bits(cl)):
            return False
    return True


def separation(t: FinTop) -> SeparationFlags:
    """T0/T1/T2 flags, each read in one pass over the minimal
    neighborhoods: T0 when they are pairwise distinct, T1 when each is
    its point alone, T2 when they are pairwise disjoint, that is, when
    their sizes sum to the size of their union."""
    nbrs = t.nbrs
    return SeparationFlags(
        len(set(nbrs)) == t.size,
        all(n == 1 << x for x, n in enumerate(nbrs)),
        sum(n.bit_count() for n in nbrs) == reduce(or_, nbrs, 0).bit_count(),
    )


def subspace(t: FinTop, s: int) -> FinTop:
    """Subspace on the points of ``s``, reindexed densely in sorted order;
    its neighborhoods are the traces of the parent ones."""
    _check_subset(t, s, "subspace carrier")
    points = list(iter_bits(s))
    pos = {p: i for i, p in enumerate(points)}
    return FinTop.from_neighborhoods(image_of(pos, t.nbrs[p] & s) for p in points)


def product_with_discrete(t: FinTop, k: int) -> FinTop:
    """Product of a k-point discrete space with ``t``.

    Point ``(j, x)`` is encoded as ``j * t.size + x``; the opens are
    exactly the sets whose every slice is open in ``t``.
    """
    if type(k) is not int:  # True would pass below as one copy
        raise ValueError(f"size must be an int, not {type(k).__name__}")
    if k < 1:
        raise ValueError("the discrete factor needs at least one point")
    return FinTop.from_neighborhoods(
        n << (j * t.size) for j in range(k) for n in t.nbrs
    )


def product(a: FinTop, b: FinTop) -> FinTop:
    """Product topology; point ``(x, y)`` is encoded as ``x * b.size + y``.
    The neighborhood of a point is the product of its coordinates'."""
    nbrs = []
    for x in a.points():
        for y in b.points():
            acc = 0
            for x2 in iter_bits(a.nbrs[x]):
                acc |= b.nbrs[y] << (x2 * b.size)
            nbrs.append(acc)
    return FinTop.from_neighborhoods(nbrs)


def quotient(t: FinTop, e: EqRel) -> FinTop:
    """Quotient topology on the classes of ``e``.

    A class set is open exactly when its preimage is open in ``t``, so
    the neighborhood of a class is the least class set that contains it
    and every class meeting the neighborhood of a member: saturate up to
    a fixed point.
    """
    if e.size != t.size:
        raise ValueError("relation carrier does not match the space")
    cid = e.class_id
    step = [0] * e.num_classes
    for x, n in enumerate(t.nbrs):
        step[cid[x]] |= image_of(cid, n)
    nbrs = []
    for c in range(len(step)):
        reach = frontier = 1 << c
        while frontier:
            frontier = union_of(step, frontier) & ~reach
            reach |= frontier
        nbrs.append(reach)
    return FinTop.from_neighborhoods(nbrs)


def is_borel(t: FinTop, mask: int) -> bool:
    _check_subset(t, mask, "set")
    return all(atom & mask in (0, atom) for atom in t.atoms)


def borel_algebra(t: FinTop) -> tuple[int, ...]:
    """All members of the algebra generated by the opens (finite Borel),
    in increasing order; raises LimitExceeded past 16 atoms."""
    atoms = t.atoms
    if len(atoms) > 16:
        raise LimitExceeded("Borel atoms", len(atoms), 16)
    members = [0]
    for atom in atoms:
        members += [m | atom for m in members]
    return tuple(sorted(members))


def _check_map(f: Sequence[int] | Mapping[int, int], points: Iterable[int],
               dst: FinTop) -> None:
    # each value read is a point of dst: 5 would index past its
    # neighborhoods, -1 shift by a negative count, True pass for point 1
    for x in points:
        if not in_range(f[x], dst.size):
            raise ValueError(f"map sends point {x} to {f[x]!r}, not a point of the target")


def _check_total_map(f: Sequence[int], src: FinTop, dst: FinTop) -> None:
    if not has_entries(f, src.size):
        raise ValueError("map length does not match the source carrier")
    _check_map(f, range(src.size), dst)


def is_continuous(f: Sequence[int], src: FinTop, dst: FinTop) -> bool:
    """Whether the preimage of every open of ``dst`` is open in ``src``;
    on finite spaces, whether ``f`` is monotone for the specialization
    preorders: ``f(nbrs[x])`` lies in the neighborhood of ``f(x)``.
    A map of another length, or with a value that is not a point of
    ``dst``, raises ValueError."""
    _check_total_map(f, src, dst)
    return _is_monotone(f, src, dst)


def _is_monotone(f: Sequence[int], src: FinTop, dst: FinTop) -> bool:
    # f is a total map of src's points to dst's, checked or known
    nbrs = dst.nbrs
    for x, n in enumerate(src.nbrs):
        if image_of(f, n) & ~nbrs[f[x]]:
            return False
    return True


def is_open_map(f: Sequence[int], src: FinTop, dst: FinTop) -> bool:
    """Whether the image of every open of ``src`` is open in ``dst``.
    Opens are unions of minimal neighborhoods and images keep unions, so
    checking the neighborhoods suffices.  Raises ValueError as
    ``is_continuous`` does."""
    _check_total_map(f, src, dst)
    # each image is a set of points of dst, so ``is_open`` is read
    # without its subset check
    nbrs = dst.nbrs
    for n in src.nbrs:
        moved = image_of(f, n)
        if union_of(nbrs, moved) & ~moved:
            return False
    return True


def is_homeomorphism(
    f: Sequence[int] | Mapping[int, int], src: FinTop, s: int, dst: FinTop, d: int
) -> bool:
    """Whether ``f``, read on ambient labels (``f[x]`` for each x in
    ``s``), is a homeomorphism from the subspace of ``src`` on ``s`` onto
    the subspace of ``dst`` on ``d``.  A bijection is continuous and open
    exactly when it carries each minimal neighborhood onto that of the
    image point (continuity gives one inclusion; an open image holding
    f(x) the other), and subspace neighborhoods are traces.  A map that
    leaves a point of ``s`` unmapped (or has no ``[]``), or sends one to
    a value that is not a point of ``dst``, raises ValueError."""
    _check_subset(src, s, "source set")
    _check_subset(dst, d, "target set")
    try:
        _check_map(f, iter_bits(s), dst)
    except (IndexError, KeyError, TypeError):
        raise ValueError("map leaves a point of the source set unmapped") from None
    image = image_of(f, s)
    if image != d or s.bit_count() != d.bit_count():
        return False
    return _carries_nbrs(f, src, s, dst, d)


def _carries_nbrs(f: Sequence[int] | Mapping[int, int], src: FinTop, s: int,
                  dst: FinTop, d: int) -> bool:
    # is_homeomorphism's last step: f is known to be a bijection of s
    # onto d, given by points of dst
    src_nbrs, dst_nbrs = src.nbrs, dst.nbrs
    for x in iter_bits(s):
        if image_of(f, src_nbrs[x] & s) != dst_nbrs[f[x]] & d:
            return False
    return True


def make_topology(size: int, generators: Iterable[int]) -> FinTop:
    """Close a generating family under union and intersection: the
    neighborhood of ``x`` is the meet of the generators containing it.

    The empty set and the whole carrier are always included.  Raises
    InvalidSubset when a generator sticks out of the point range.
    """
    full = _full(size)
    family = [0, full]
    for g in generators:
        if not in_range(g, full + 1):
            raise InvalidSubset(f"generator {_hex(g)} not within the point range", (g,))
        family.append(g)
    return FinTop(size, family)


def discrete(size: int) -> FinTop:
    _check_size(size)
    return FinTop.from_neighborhoods(1 << x for x in range(size))


def topology_with_opens(size: int, members: Iterable[int]) -> FinTop:
    """The topology whose open sets are exactly ``members``; else a
    ValueError naming FinTop's failed check or a missing union.

    Each member contains the meet N(x) of the members holding x for each
    of its points x, so it is open in the topology the family generates;
    the family is that topology exactly when it has as many members as
    the topology has opens (the count stops past that).  If not, some
    member u misses ``u | N(x)`` for an x outside it, since adding
    neighborhoods to the empty set builds every open.
    """
    fam = set(members)
    t = FinTop(size, fam)
    if len(_up_sets(t.nbrs, len(fam))) == len(fam):
        return t
    u, n = next(
        (u, t.nbrs[x]) for u in fam for x in iter_bits(t.full & ~u)
        if u | t.nbrs[x] not in fam
    )
    raise ValueError(f"union of {u:#x} and {n:#x} missing")


def homeomorphisms(t: FinTop) -> list[tuple[int, ...]]:
    """All self-homeomorphisms, as point permutations."""
    return [
        perm for perm in itertools.permutations(t.points())
        if is_homeomorphism(perm, t, t.full, t, t.full)
    ]


def all_topologies(size: int) -> list[FinTop]:
    """Every topology on ``range(size)``, one per preorder.

    Enumerates reflexive relations, keeps the transitive ones and builds
    each topology from its neighborhoods; on a finite carrier this hits
    each topology exactly once.  Raises LimitExceeded past 4 points.
    """
    _check_size(size)
    if size == 0:
        return [FinTop(0, (0,))]
    if size > 4:
        raise LimitExceeded("points of an exhaustive topology enumeration", size, 4)
    pairs = [(x, y) for x in range(size) for y in range(size) if x != y]
    seen = []
    for bits in range(1 << len(pairs)):
        nbrs = [1 << x for x in range(size)]
        for i, (x, y) in enumerate(pairs):
            if (bits >> i) & 1:
                nbrs[x] |= 1 << y
        if all(nbrs[y] & ~n == 0 for n in nbrs for y in iter_bits(n)):
            seen.append(FinTop.from_neighborhoods(nbrs))
    return seen
