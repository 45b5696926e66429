"""Planar geometry of star polygons.

The layout of a star unfolding from its cell (_layout), the point location
its readers run in it, the junction candidates of its source images, and
their grouping by circumcenter, which the cut locus and the radius
search's node models share (_group_junctions).  A star is not walked out
from its cuts' angles and lengths: its corners and each source image's
petal are fixed within a cell of the surface (Tetrahedron.star_cells), so
a layout is three or four weighted sums, and a star unfolding never
overlaps itself (Aronov & O'Rourke 1992), so it needs no closure, area or
simplicity check.  A face-interior or edge source has four cuts, so its
polygon is an 8-gon of four source images and four vertex images, and a
vertex source has three, a 6-gon; every function here works on either.
The junction candidates of four images are written out (_circumcenters4):
they take the same floats from the same expressions in the same order as
the loop over every triple, which the tests keep as their reference
(tests/test_star_layout.py).  The point test and the side test are one
loop each (_point_in_star, _star_sides_within), held to the generic
polygon loops of tests/polygon_loops.py.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import AmbiguousCut
from .geometry import DEDUP_TOL, _circumcenter2, _pt_seg2

_TWO_PI = 2.0 * math.pi

# the images of a star of m images that do not flank corner k, which lies
# between images k and k + 1
_FOREIGN = {m: tuple([tuple([j for j in range(m) if j not in (k, (k + 1) % m)])
                      for k in range(m)]) for m in (3, 4)}


def _layout(cell, bary, cuts, omega):
    """(images, corners, near, poly, rotations, pieces) of the star of a
    source of canonical weights bary in the cell (Tetrahedron.star_cells),
    from its sorted cuts, or AmbiguousCut.

    Corner k is the star point of the vertex of cuts[k], and image k,
    between corners k - 1 and k, is the weighted sum of their petal's
    points.  The cell keeps the chart's order, so the polygon (image 0,
    corner 0, image 1, ...) turns counterclockwise, and it closes with the
    surface's area by construction.  Seen from image k, chart angle theta
    is the plane direction rotations[k] - theta, read on the longer cut
    flanking the image: the cut's angle plus the direction of its corner
    (omega is the chart's total angle).  near[k] is the length of cuts[k],
    or the distance from corner k to an image that does not flank it,
    where that is shorter; nearer by more than a relative 1e-7, it raises.
    Cuts sorted out of the cell's order, as rounding can leave two cut
    directions that tie, raise too.  pieces are the star's pieces, the
    petal around each image in image order, then the cell's others.
    """
    at, petals, outer = cell
    b0, b1, b2 = bary
    thetas, verts, lengths, _ = zip(*cuts)
    corners = tuple(map(at.__getitem__, verts))
    pieces = list(map(petals.get, zip(verts[-1:] + verts[:-1], verts)))
    if None in pieces:
        raise AmbiguousCut("cut directions collide at the source")
    images = tuple([(b0 * x0 + b1 * x1 + b2 * x2, b0 * y0 + b1 * y1 + b2 * y2)
                    for (x0, y0), (x1, y1), (x2, y2), _ in pieces])
    dist, atan2, fmod = math.dist, math.atan2, math.fmod
    near = []
    rotations = []
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
        # a cut next to a vertex is too short to give a direction to 1e-6;
        # cuts[-1] lies a full turn back from image 0
        ax, ay = images[k]
        if length >= lengths[k - 1]:
            (wx, wy), theta = w, thetas[k]
        else:
            (wx, wy), theta = corners[k - 1], thetas[k - 1]
            if k == 0:
                theta -= omega
        r = fmod(theta + atan2(wy - ay, wx - ax), _TWO_PI)
        rotations.append(r + _TWO_PI if r < 0.0 else r)
    poly = tuple([p for pair in zip(images, corners) for p in pair])
    return (images, corners, tuple(near), poly, tuple(rotations),
            tuple([petal[3] for petal in pieces]) + outer)


def _point_in_star(pt, poly, tol):
    """Even-odd test of pt in the star polygon poly, a 6-gon or an 8-gon;
    a point outside within tol of the boundary is inside.  The sides are
    counted from the closing side on."""
    px, py = pt
    inside = False
    x1, y1 = poly[-1]
    u1 = y1 > py
    for x2, y2 in poly:
        u2 = y2 > py
        if u1 != u2 and px < x1 + (py - y1) / (y2 - y1) * (x2 - x1):
            inside = not inside
        x1, y1, u1 = x2, y2, u2
    return inside or _star_sides_within(pt, poly, tol)


def _star_sides_within(pt, poly, tol):
    """Whether pt lies within tol of a side of the star polygon poly: a
    side whose bounding box lies more than tol from pt is settled without
    _pt_seg2, with each corner's offset from pt taken once for the two
    sides that meet there (px - x > tol is x - px < -tol, as negation is
    exact)."""
    px, py = pt
    n = -tol
    a = poly[-1]
    u1, v1 = a[0] - px, a[1] - py
    for b in poly:
        u2, v2 = b[0] - px, b[1] - py
        if (not (u1 > tol < u2 or u1 < n > u2 or v1 > tol < v2 or v1 < n > v2)
                and _pt_seg2(pt, a, b) <= tol):
            return True
        a, u1, v1 = b, u2, v2
    return False


def _circumcenters(images, scale):
    """Junction candidates of three or four source images, falling by value.

    (value, point, None, (i, j, l)) for each circumcenter of three images
    that no fourth image is nearer to by more than DEDUP_TOL * scale; value
    is its distance to the nearest image.
    """
    snap = DEDUP_TOL * scale
    min_det = 1e-14 * scale * scale
    if len(images) == 4:
        return _circumcenters4(images, snap, min_det)
    # three images have one triple, which no fourth image dominates
    a0, a1, a2 = images
    c = _circumcenter2(a0, a1, a2, min_det)
    if c is None:
        return []
    e0 = math.dist(c, a0)
    val = min(e0, math.dist(c, a1), math.dist(c, a2))
    return [] if val < e0 - snap else [(val, c, None, (0, 1, 2))]


def _circumcenters4(images, snap, min_det):
    """_circumcenters of four images, written out for the triples
    (0, 1, 2), (0, 1, 3), (0, 2, 3) and (1, 2, 3), with snap and min_det
    as it takes them.

    Each circumcenter is _circumcenter2's, from the same differences,
    each taken once and shared by the triples that read it, and the same
    squared norms; it is kept unless its distance to the nearest image,
    of the four, is below its distance to the triple's first image by
    more than snap.  The tests are written as _circumcenter2's and
    _circumcenters' are.
    """
    dist = math.dist
    a0, a1, a2, a3 = images
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = images
    q0, q1 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1
    q2, q3 = x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
    # yab is ya - yb and xab is xa - xb
    y12, y20, y01, y13, y30 = (
        y1 - y2, y2 - y0, y0 - y1, y1 - y3, y3 - y0)
    y23, y02, y31 = (
        y2 - y3, y0 - y2, y3 - y1)
    x21, x02, x10, x31, x03 = (
        x2 - x1, x0 - x2, x1 - x0, x3 - x1, x0 - x3)
    x32, x20, x13 = (
        x3 - x2, x2 - x0, x1 - x3)
    out = []
    d = 2.0 * (x0 * y12 + x1 * y20 + x2 * y01)
    if not abs(d) <= min_det:
        c = ((q0 * y12 + q1 * y20 + q2 * y01) / d,
             (q0 * x21 + q1 * x02 + q2 * x10) / d)
        e0, e1, e2, e3 = dist(c, a0), dist(c, a1), dist(c, a2), dist(c, a3)
        val = min(e0, e1, e2, e3)
        if not val < e0 - snap:
            out.append((val, c, None, (0, 1, 2)))
    d = 2.0 * (x0 * y13 + x1 * y30 + x3 * y01)
    if not abs(d) <= min_det:
        c = ((q0 * y13 + q1 * y30 + q3 * y01) / d,
             (q0 * x31 + q1 * x03 + q3 * x10) / d)
        e0, e1, e2, e3 = dist(c, a0), dist(c, a1), dist(c, a2), dist(c, a3)
        val = min(e0, e1, e2, e3)
        if not val < e0 - snap:
            out.append((val, c, None, (0, 1, 3)))
    d = 2.0 * (x0 * y23 + x2 * y30 + x3 * y02)
    if not abs(d) <= min_det:
        c = ((q0 * y23 + q2 * y30 + q3 * y02) / d,
             (q0 * x32 + q2 * x03 + q3 * x20) / d)
        e0, e1, e2, e3 = dist(c, a0), dist(c, a1), dist(c, a2), dist(c, a3)
        val = min(e0, e1, e2, e3)
        if not val < e0 - snap:
            out.append((val, c, None, (0, 2, 3)))
    d = 2.0 * (x1 * y23 + x2 * y31 + x3 * y12)
    if not abs(d) <= min_det:
        c = ((q1 * y23 + q2 * y31 + q3 * y12) / d,
             (q1 * x32 + q2 * x13 + q3 * x21) / d)
        e0, e1, e2, e3 = dist(c, a0), dist(c, a1), dist(c, a2), dist(c, a3)
        val = min(e0, e1, e2, e3)
        if not val < e1 - snap:
            out.append((val, c, None, (1, 2, 3)))
    out.sort(key=itemgetter(0), reverse=True)
    return out


def _group_junctions(juncs, snap):
    """Junction candidates grouped by circumcenter: (first point, members).

    A candidate joins the first group whose first point lies within snap.
    """
    groups = []
    for node in juncs:
        pt = node[1]
        for g in groups:
            if math.hypot(pt[0] - g[0][0], pt[1] - g[0][1]) <= snap:
                g[1].append(node)
                break
        else:
            groups.append((pt, [node]))
    return groups
