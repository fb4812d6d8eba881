"""Independent reference implementations used to freeze expected values.

Everything here is computed straight from definitions by brute force,
never by calling the code paths under test: interiors scan the open
family, meagerness unions every nowhere-dense subset, Borel algebras
close under the operations literally, product opens quantify over
rectangles.  Slow is fine; these run at desk scale only.
"""

from __future__ import annotations

from itertools import permutations


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def interior_oracle(size: int, opens, a: int) -> int:
    # largest open subset: union of all opens inside a
    out = 0
    for u in opens:
        if u & ~a == 0:
            out |= u
    return out


def closure_oracle(size: int, opens, a: int) -> int:
    # smallest closed superset: intersect all closed supersets
    full = (1 << size) - 1
    out = full
    for u in opens:
        c = full & ~u
        if a & ~c == 0:
            out &= c
    return out


def subspace_opens_oracle(opens, s: int) -> set[int]:
    # traces on the ambient point labels, not reindexed
    return {u & s for u in opens}


def nowhere_dense_in_oracle(size: int, opens, s: int, n: int) -> bool:
    sub_opens = sorted(subspace_opens_oracle(opens, s))
    cl = closure_oracle(size, sub_opens, n) & s
    return interior_oracle(size, sub_opens, cl) & s == 0


def meager_in_oracle(size: int, opens, a: int, s: int) -> bool:
    """a is meager in the subspace on s: covered by the union of all
    nowhere-dense-in-s subsets (a finite union of nowhere dense sets is
    meager, and every meager set sits inside such a union)."""
    union = 0
    for n in range(1 << size):
        if n & ~s == 0 and nowhere_dense_in_oracle(size, opens, s, n):
            union |= n
    return a & ~union == 0


def is_topology_oracle(size: int, family) -> bool:
    # the axioms literally: the empty set and the carrier are members,
    # and so is the union and the intersection of any two members
    fam = set(family)
    return {0, (1 << size) - 1} <= fam and all(
        u | v in fam and u & v in fam for u in fam for v in fam
    )


def borel_oracle(size: int, opens) -> set[int]:
    full = (1 << size) - 1
    fam = set(opens)
    while True:
        nxt = set(fam)
        for u in fam:
            nxt.add(full & ~u)
            for v in fam:
                nxt.add(u | v)
        if nxt == fam:
            return fam
        fam = nxt


def product_opens_oracle(a_size: int, a_opens, b_size: int, b_opens) -> set[int]:
    """Product topology literally: W is open iff every member point has
    an open rectangle inside W.  Points encoded x * b_size + y."""
    out = set()
    for w in range(1 << (a_size * b_size)):
        ok = True
        for x in range(a_size):
            for y in range(b_size):
                if not (w >> (x * b_size + y)) & 1:
                    continue
                found = False
                for u in a_opens:
                    if not (u >> x) & 1:
                        continue
                    for v in b_opens:
                        if not (v >> y) & 1:
                            continue
                        rect = 0
                        for xx in bits(u):
                            for yy in bits(v):
                                rect |= 1 << (xx * b_size + yy)
                        if rect & ~w == 0:
                            found = True
                            break
                    if found:
                        break
                if not found:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(w)
    return out


def quotient_opens_oracle(size: int, opens, class_of) -> set[int]:
    n_classes = max((class_of[x] for x in range(size)), default=-1) + 1
    out = set()
    for w in range(1 << n_classes):
        pre = 0
        for x in range(size):
            if (w >> class_of[x]) & 1:
                pre |= 1 << x
        if pre in set(opens):
            out.add(w)
    return out


def delta_oracle(pa, a: int, v: int) -> int:
    """Transform from the definition, with meagerness from the oracle
    over the discrete group topology."""
    order = pa.group.order
    g_opens = list(range(1 << order))
    out = 0
    for x in pa.space.points():
        vx = 0
        for g in range(order):
            if (v >> g) & 1 and pa.maps[g][x] >= 0:
                vx |= 1 << g
        hits = 0
        for g in bits(vx):
            if (a >> pa.maps[g][x]) & 1:
                hits |= 1 << g
        if not meager_in_oracle(order, g_opens, hits, vx):
            out |= 1 << x
    return out


def star_oracle(pa, a: int, v: int) -> int:
    order = pa.group.order
    g_opens = list(range(1 << order))
    out = 0
    for x in pa.space.points():
        vx = 0
        for g in range(order):
            if (v >> g) & 1 and pa.maps[g][x] >= 0:
                vx |= 1 << g
        hits = 0
        for g in bits(vx):
            if (a >> pa.maps[g][x]) & 1:
                hits |= 1 << g
        if meager_in_oracle(order, g_opens, vx & ~hits, vx):
            out |= 1 << x
    return out


def envelope_classes_oracle(pa) -> list[set[tuple[int, int]]]:
    """Classes of the gluing relation, produced by closing the lifted
    moves (h, x) -> (h * inv(g), g.x) under reachability, which is an
    independent route to the same partition."""
    group, size = pa.group, pa.space.size
    pairs = [(g, x) for g in range(group.order) for x in range(size)]
    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq

    for h, x in pairs:
        for g in range(group.order):
            if pa.maps[g][x] >= 0:
                union((h, x), (group.mul[h][group.inv[g]], pa.maps[g][x]))
    groups: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for p in pairs:
        groups.setdefault(find(p), set()).add(p)
    return sorted(groups.values(), key=lambda s: min(s))


def homeomorphisms_oracle(size: int, opens) -> list[tuple[int, ...]]:
    fam = set(opens)
    out = []
    for perm in permutations(range(size)):
        mapped = set()
        for u in fam:
            m = 0
            for x in bits(u):
                m |= 1 << perm[x]
            mapped.add(m)
        if mapped == fam:
            out.append(tuple(perm))
    return out
