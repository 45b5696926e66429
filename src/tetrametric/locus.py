"""The tree of a cut locus: which image pairs its arcs bisect.

A node owns the source-image pairs whose bisectors leave it, and each
owned pair is an arc between the two nodes that own it (_locus_plan).
The tree depends only on the pairs the nodes own, so each plan is made
once, on its first read, and kept (_LOCUS_PLANS).
"""

from __future__ import annotations

import functools
import itertools
import math


def _ring_pairs(images, img, pt):
    """The image pairs adjacent around pt, for the images img within snap
    of it, as sorted index pairs in angular order.

    The order is atan2's, from -pi up to pi, with no angle taken: the
    images' offsets from pt are ranked by half plane (_half), and within
    one open half plane by the sign of their cross product, so that
    offsets atan2 maps to one angle, as +0 and -0 along the x axis, keep
    their order in img, as a stable sort by atan2 keeps it.
    """
    px, py = pt
    offsets = {k: (images[k][0] - px, images[k][1] - py) for k in img}

    def order(j, k):
        (ux, uy), (vx, vy) = offsets[j], offsets[k]
        hu, hv = _half(ux, uy), _half(vx, vy)
        if hu != hv:
            return hu - hv
        c = ux * vy - uy * vx
        return (c < 0.0) - (c > 0.0)

    ring = sorted(img, key=functools.cmp_to_key(order))
    return [tuple(sorted((ring[t - 1], ring[t]))) for t in range(len(ring))]


def _half(x, y):
    """The rank of the direction (x, y) in atan2's order: 0 where atan2
    gives -pi (y = -0, x < 0 or x = -0), 1 below the x axis, 2 where it
    gives a zero (y a zero, x > 0 or x = +0), 3 above the x axis and 4
    where it gives pi (y = +0, x < 0 or x = -0)."""
    if y < 0.0:
        return 1
    if y > 0.0:
        return 3
    if x > 0.0 or (x == 0.0 and math.copysign(1.0, x) > 0.0):
        return 2
    return 0 if math.copysign(1.0, y) < 0.0 else 4


def _locus_plan(owns, degrees):
    """The arcs (pair, na, nb), na <= nb, in sorted pair order, of a cut
    locus whose node i owns the image pairs owns[i], or the AmbiguousCut
    message of the first tree check they fail: each pair owned by exactly
    two nodes, one arc fewer than nodes, connected, and the degree of
    node i degrees[i] (a vertex node's images less one) or, where that is
    None (a junction), at least three.
    """
    ends = {}
    for ni, own in enumerate(owns):
        for pair in own:
            ends.setdefault(pair, []).append(ni)
    plan = []
    for pair, ns in sorted(ends.items()):
        if len(ns) != 2:
            return "an image pair is not shared by two nodes"
        plan.append((pair, ns[0], ns[1]))
    if len(plan) != len(owns) - 1:
        return "cut locus is not a tree"
    adj = [[] for _ in owns]
    for _, na, nb in plan:
        adj[na].append(nb)
        adj[nb].append(na)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(owns):
        return "cut locus is disconnected"
    for deg, ends_at in zip(degrees, adj):
        if deg is not None and len(ends_at) != deg:
            return "vertex node's degree does not match its images"
        if deg is None and len(ends_at) < 3:
            return "interior cut-locus node of degree below three"
    return tuple(plan)


# corner k of a star of m images is flanked by images k and k + 1 (mod m);
# a lone junction owns the three pairs of its triple
_FLANKS = {3: ((0, 1), (1, 2), (0, 2)), 4: ((0, 1), (1, 2), (2, 3), (0, 3))}
_TRIPLE_PAIRS = {tri: tuple(itertools.combinations(tri, 2))
                 for tri in itertools.combinations(range(4), 3)}


class _LocusPlans(dict):
    """The plans of cut loci, each made by _locus_plan on its first read.

    A key is (head, *the junctions' pairs in node order).  head is the
    star's image count m where no vertex node is tied, each vertex node k
    then owning its flank pair, or else the vertex nodes' owned pairs.  A
    vertex node's degree is the number of pairs it owns: its images less
    one, as the tied images around a corner make a ring of pairs of which
    the flank pair, the cut, is not an arc.  A plan is a function of its
    key alone, so threads that miss one key at once make the same plan.
    """

    def __missing__(self, key):
        head, juncs = key[0], list(key[1:])
        vowns = ([(fl,) for fl in _FLANKS[head]] if head.__class__ is int
                 else list(head))
        plan = self[key] = _locus_plan(
            vowns + juncs, [len(own) for own in vowns] + [None] * len(juncs))
        return plan


_LOCUS_PLANS = _LocusPlans()
