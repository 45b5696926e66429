"""The radius probe's reads as plain loops.

tetrametric writes three reads of the radius search out as straight
passes: the star's layout from constants kept on its cell (planar._layout),
the 42 seed bounds face by face (intrinsic._seed_bounds, sorted by
intrinsic._seed_order) from one seed table (intrinsic._FACE_SEEDS) and
the farthest read with its point test inline (intrinsic._read_farthest).
Each takes the same floats from the same expressions as these loops,
which rebuild the cell's corners, petals, turns and pieces at every
layout, build the seeds one by one with a fold of their own, take each
seed's bound on its own and test each junction with
planar._point_in_star, so the tests hold the passes equal to the loops,
to the bit.  The surface point at a star point has its loop in
tests/path_loops.py (to_surface).
"""

import math

from tetrametric.errors import AmbiguousCut
from tetrametric.geometry import DEDUP_TOL, EDGES, edge_point, face_point
from tetrametric.planar import _FOREIGN, _point_in_star


def layout(cell, bary, cuts):
    """planar._layout, with the corners, the petals, the turns and the
    pieces read off the cell's tables at every call."""
    at, petals, outer = cell[:3]
    b0, b1, b2 = bary
    verts, lengths, _ = zip(*cuts)
    corners = tuple(map(at.__getitem__, verts))
    pieces = [petals[uw] for uw in zip(verts[-1:] + verts[:-1], verts)]
    images = tuple([(b0 * x0 + b1 * x1 + b2 * x2, b0 * y0 + b1 * y1 + b2 * y2)
                    for (x0, y0), (x1, y1), (x2, y2), _, _ in pieces])
    dist = math.dist
    near = []
    for k, foreign in enumerate(_FOREIGN[len(cuts)]):
        w, length = corners[k], lengths[k]
        d = length
        for j in foreign:
            e = dist(w, images[j])
            if e < d:
                d = e
        if d < length * (1.0 - 1e-7):
            raise AmbiguousCut("vertex image closer to a foreign source image")
        near.append(d)
    poly = tuple([p for pair in zip(images, corners) for p in pair])
    return (images, corners, tuple(near), poly,
            tuple([petal[4] for petal in pieces]),
            tuple([petal[3] for petal in pieces]) + outer)


def _fold_uv(u, v):
    """Clamp (u, v) to the unit triangle by folding across its diagonal."""
    u = min(max(u, 0.0), 1.0)
    v = min(max(v, 0.0), 1.0)
    if u + v > 1.0:
        u, v = 1.0 - v, 1.0 - u
    w = max(1.0 - u - v, 0.0)
    s = u + v + w
    return (u / s, v / s, w / s)


def radius_seeds():
    """The 42 seeds of intrinsic._FACE_SEEDS, canonical surface points: a
    3x3 grid folded into each face, then the six edge midpoints."""
    seeds = []
    grid = (0.15, 0.45, 0.75)
    for f in range(4):
        for u in grid:
            for v in grid:
                seeds.append(face_point(f, _fold_uv(u, v)))
    for a, b in EDGES:
        seeds.append(edge_point(a, b, 0.5))
    return seeds


def seed_bound(T, face, bary):
    """intrinsic._seed_bounds' bound at one point of `face`, its corners
    and apex images read off T's tables at every call, and its frame
    point off T.frame2."""
    sx, sy = T.frame2(face, bary)
    near = max([math.hypot(c[0] - sx, c[1] - sy) for c in T.face_frames[face]])
    far = min([math.hypot(C2[0] - sx, C2[1] - sy)
               for _, _, _, _, C2, _, _, _ in T.rim_table[face]])
    return max(near, far) * (1.0 - 1e-6)


def seed_order(T):
    """intrinsic._seed_order: each seed's seed_bound, sorted."""
    return sorted((seed_bound(T, x.face, x.bary), x.face, x.bary, x)
                  for x in radius_seeds())


def read_farthest(star, window):
    """(best, nodes, sides) of intrinsic._read_farthest, each junction
    tested by _point_in_star; sides counts the junctions that only its
    side test admits."""
    nodes = [(d, w, k, None)
             for k, (d, w) in enumerate(zip(star.near, star.corners))]
    best = max(star.near)
    snap = DEDUP_TOL * star.tetra.diam
    poly = star.poly
    sides = 0
    for node in star.junctions:
        if node[0] < best - window:
            break
        if _point_in_star(node[1], poly, snap):
            best = max(best, node[0])
            nodes.append(node)
            sides += not _point_in_star(node[1], poly, -math.inf)
    return best, [node for node in nodes if node[0] >= best - window], sides
