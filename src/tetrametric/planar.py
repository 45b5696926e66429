"""Planar geometry of star polygons.

The layout of a star unfolding's boundary polygon and the checks it runs
(closure, flank consistency, area, simplicity, foreign images), the point
location its readers run in it, the junction candidates of its source
images, and their grouping by circumcenter, which the cut locus and the
radius search's node models share (_group_junctions).  The layout is
written out for its two shapes: a face-interior or edge source has four
cuts, so its polygon is an 8-gon of four source images and four vertex
images (_octagon_layout), and a vertex source has three, a 6-gon
(_hexagon_layout).  The simplicity check and the junction
candidates have written-out twins too (_octagon_simple, _hexagon_simple,
_circumcenters4 and the one triple of three images in _circumcenters).  A
twin takes the same floats from the same expressions in the same order as
the generic loop over any polygon or any number of images, which the tests
keep as their reference (tests/polygon_loops.py, tests/test_star_layout.py),
and reaches the same decisions.  The point test and the side test, which a
star's readers run on either shape, are one loop each (_point_in_star,
_star_sides_within).  Only intrinsic._unfold, which builds a star, chooses
by its shape.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import AmbiguousCut
from .geometry import DEDUP_TOL, _circumcenter2, _orient, _pt_seg2

_TWO_PI = 2.0 * math.pi


def _seg_gap(p, q, r, s):
    """Distance between segments pq and rs (0 when they properly cross)."""
    d1, d2 = _orient(p, q, r), _orient(p, q, s)
    d3, d4 = _orient(r, s, p), _orient(r, s, q)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
        return 0.0
    return min(_pt_seg2(r, p, q), _pt_seg2(s, p, q), _pt_seg2(p, r, s),
               _pt_seg2(q, r, s))


def _segments_within(p, q, r, s, tol):
    """Whether segments pq and rs come within tol of each other.

    Two segments are at least as far apart as their bounding boxes, so a
    pair whose boxes are more than tol apart is settled without _seg_gap.
    """
    for k in (0, 1):
        lo1, hi1 = (p[k], q[k]) if p[k] <= q[k] else (q[k], p[k])
        lo2, hi2 = (r[k], s[k]) if r[k] <= s[k] else (s[k], r[k])
        if lo2 - hi1 > tol or lo1 - hi2 > tol:
            return False
    return _seg_gap(p, q, r, s) <= tol


def _beyond_line(p, q, r, s, tol):
    """Whether r and s lie strictly on one side of the line pq, each more
    than 2 tol from it, so that segments pq and rs are more than tol apart
    by a margin far above rounding."""
    o1, o2 = _orient(p, q, r), _orient(p, q, s)
    if (o1 > 0.0) != (o2 > 0.0):
        return False
    o = min(abs(o1), abs(o2))
    dx, dy = q[0] - p[0], q[1] - p[1]
    # _orient is |pq| times the distance from the line
    return o * o > 4.0 * tol * tol * (dx * dx + dy * dy)


def _sides_near(p, q, r, s, tol):
    """Whether sides pq and rs, whose bounding boxes come within tol, come
    within tol (_segments_within).  The pair is first tried by the sides'
    lines (_beyond_line, either way round), which settles most far-apart
    pairs without _seg_gap's four distances."""
    if _beyond_line(p, q, r, s, tol) or _beyond_line(r, s, p, q, tol):
        return False
    return _segments_within(p, q, r, s, tol)


def _octagon_simple(poly, tol):
    """Whether no two non-adjacent sides of the closed 8-gon poly come
    within tol: the generic _polygon_simple, written out.

    Side k runs from poly[k] to poly[k + 1]; its bounding box is
    [lk, hk] x [mk, nk].  Each pair of non-adjacent sides is tried by
    its boxes first, and a pair whose boxes come within tol is decided
    by _sides_near.
    """
    p0, p1, p2, p3, p4, p5, p6, p7 = poly
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = p0, p1, p2, p3
    (x4, y4), (x5, y5), (x6, y6), (x7, y7) = p4, p5, p6, p7
    l0, h0 = (x0, x1) if x0 <= x1 else (x1, x0)
    m0, n0 = (y0, y1) if y0 <= y1 else (y1, y0)
    l1, h1 = (x1, x2) if x1 <= x2 else (x2, x1)
    m1, n1 = (y1, y2) if y1 <= y2 else (y2, y1)
    l2, h2 = (x2, x3) if x2 <= x3 else (x3, x2)
    m2, n2 = (y2, y3) if y2 <= y3 else (y3, y2)
    l3, h3 = (x3, x4) if x3 <= x4 else (x4, x3)
    m3, n3 = (y3, y4) if y3 <= y4 else (y4, y3)
    l4, h4 = (x4, x5) if x4 <= x5 else (x5, x4)
    m4, n4 = (y4, y5) if y4 <= y5 else (y5, y4)
    l5, h5 = (x5, x6) if x5 <= x6 else (x6, x5)
    m5, n5 = (y5, y6) if y5 <= y6 else (y6, y5)
    l6, h6 = (x6, x7) if x6 <= x7 else (x7, x6)
    m6, n6 = (y6, y7) if y6 <= y7 else (y7, y6)
    l7, h7 = (x7, x0) if x7 <= x0 else (x0, x7)
    m7, n7 = (y7, y0) if y7 <= y0 else (y0, y7)
    if not (l2 - h0 > tol or l0 - h2 > tol or m2 - n0 > tol
            or m0 - n2 > tol) and _sides_near(p0, p1, p2, p3, tol):
        return False
    if not (l3 - h0 > tol or l0 - h3 > tol or m3 - n0 > tol
            or m0 - n3 > tol) and _sides_near(p0, p1, p3, p4, tol):
        return False
    if not (l4 - h0 > tol or l0 - h4 > tol or m4 - n0 > tol
            or m0 - n4 > tol) and _sides_near(p0, p1, p4, p5, tol):
        return False
    if not (l5 - h0 > tol or l0 - h5 > tol or m5 - n0 > tol
            or m0 - n5 > tol) and _sides_near(p0, p1, p5, p6, tol):
        return False
    if not (l6 - h0 > tol or l0 - h6 > tol or m6 - n0 > tol
            or m0 - n6 > tol) and _sides_near(p0, p1, p6, p7, tol):
        return False
    if not (l3 - h1 > tol or l1 - h3 > tol or m3 - n1 > tol
            or m1 - n3 > tol) and _sides_near(p1, p2, p3, p4, tol):
        return False
    if not (l4 - h1 > tol or l1 - h4 > tol or m4 - n1 > tol
            or m1 - n4 > tol) and _sides_near(p1, p2, p4, p5, tol):
        return False
    if not (l5 - h1 > tol or l1 - h5 > tol or m5 - n1 > tol
            or m1 - n5 > tol) and _sides_near(p1, p2, p5, p6, tol):
        return False
    if not (l6 - h1 > tol or l1 - h6 > tol or m6 - n1 > tol
            or m1 - n6 > tol) and _sides_near(p1, p2, p6, p7, tol):
        return False
    if not (l7 - h1 > tol or l1 - h7 > tol or m7 - n1 > tol
            or m1 - n7 > tol) and _sides_near(p1, p2, p7, p0, tol):
        return False
    if not (l4 - h2 > tol or l2 - h4 > tol or m4 - n2 > tol
            or m2 - n4 > tol) and _sides_near(p2, p3, p4, p5, tol):
        return False
    if not (l5 - h2 > tol or l2 - h5 > tol or m5 - n2 > tol
            or m2 - n5 > tol) and _sides_near(p2, p3, p5, p6, tol):
        return False
    if not (l6 - h2 > tol or l2 - h6 > tol or m6 - n2 > tol
            or m2 - n6 > tol) and _sides_near(p2, p3, p6, p7, tol):
        return False
    if not (l7 - h2 > tol or l2 - h7 > tol or m7 - n2 > tol
            or m2 - n7 > tol) and _sides_near(p2, p3, p7, p0, tol):
        return False
    if not (l5 - h3 > tol or l3 - h5 > tol or m5 - n3 > tol
            or m3 - n5 > tol) and _sides_near(p3, p4, p5, p6, tol):
        return False
    if not (l6 - h3 > tol or l3 - h6 > tol or m6 - n3 > tol
            or m3 - n6 > tol) and _sides_near(p3, p4, p6, p7, tol):
        return False
    if not (l7 - h3 > tol or l3 - h7 > tol or m7 - n3 > tol
            or m3 - n7 > tol) and _sides_near(p3, p4, p7, p0, tol):
        return False
    if not (l6 - h4 > tol or l4 - h6 > tol or m6 - n4 > tol
            or m4 - n6 > tol) and _sides_near(p4, p5, p6, p7, tol):
        return False
    if not (l7 - h4 > tol or l4 - h7 > tol or m7 - n4 > tol
            or m4 - n7 > tol) and _sides_near(p4, p5, p7, p0, tol):
        return False
    if not (l7 - h5 > tol or l5 - h7 > tol or m7 - n5 > tol
            or m5 - n7 > tol) and _sides_near(p5, p6, p7, p0, tol):
        return False
    return True


def _hexagon_simple(poly, tol):
    """_octagon_simple(poly, tol) for a 6-gon, over its 9 pairs of
    non-adjacent sides."""
    p0, p1, p2, p3, p4, p5 = poly
    (x0, y0), (x1, y1), (x2, y2) = p0, p1, p2
    (x3, y3), (x4, y4), (x5, y5) = p3, p4, p5
    l0, h0 = (x0, x1) if x0 <= x1 else (x1, x0)
    m0, n0 = (y0, y1) if y0 <= y1 else (y1, y0)
    l1, h1 = (x1, x2) if x1 <= x2 else (x2, x1)
    m1, n1 = (y1, y2) if y1 <= y2 else (y2, y1)
    l2, h2 = (x2, x3) if x2 <= x3 else (x3, x2)
    m2, n2 = (y2, y3) if y2 <= y3 else (y3, y2)
    l3, h3 = (x3, x4) if x3 <= x4 else (x4, x3)
    m3, n3 = (y3, y4) if y3 <= y4 else (y4, y3)
    l4, h4 = (x4, x5) if x4 <= x5 else (x5, x4)
    m4, n4 = (y4, y5) if y4 <= y5 else (y5, y4)
    l5, h5 = (x5, x0) if x5 <= x0 else (x0, x5)
    m5, n5 = (y5, y0) if y5 <= y0 else (y0, y5)
    if not (l2 - h0 > tol or l0 - h2 > tol or m2 - n0 > tol
            or m0 - n2 > tol) and _sides_near(p0, p1, p2, p3, tol):
        return False
    if not (l3 - h0 > tol or l0 - h3 > tol or m3 - n0 > tol
            or m0 - n3 > tol) and _sides_near(p0, p1, p3, p4, tol):
        return False
    if not (l4 - h0 > tol or l0 - h4 > tol or m4 - n0 > tol
            or m0 - n4 > tol) and _sides_near(p0, p1, p4, p5, tol):
        return False
    if not (l3 - h1 > tol or l1 - h3 > tol or m3 - n1 > tol
            or m1 - n3 > tol) and _sides_near(p1, p2, p3, p4, tol):
        return False
    if not (l4 - h1 > tol or l1 - h4 > tol or m4 - n1 > tol
            or m1 - n4 > tol) and _sides_near(p1, p2, p4, p5, tol):
        return False
    if not (l5 - h1 > tol or l1 - h5 > tol or m5 - n1 > tol
            or m1 - n5 > tol) and _sides_near(p1, p2, p5, p0, tol):
        return False
    if not (l4 - h2 > tol or l2 - h4 > tol or m4 - n2 > tol
            or m2 - n4 > tol) and _sides_near(p2, p3, p4, p5, tol):
        return False
    if not (l5 - h2 > tol or l2 - h5 > tol or m5 - n2 > tol
            or m2 - n5 > tol) and _sides_near(p2, p3, p5, p0, tol):
        return False
    if not (l5 - h3 > tol or l3 - h5 > tol or m5 - n3 > tol
            or m3 - n5 > tol) and _sides_near(p3, p4, p5, p0, tol):
        return False
    return True


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


def _octagon_layout(cuts, omega, cone, area, scale):
    """The 8-gon of a star with four cuts, laid out written out, or
    AmbiguousCut.

    cuts are the four sorted CutPaths, omega the total angle at the
    source, cone the cone angle at each vertex, area the surface area
    and scale the diameter.  Returns (images, corners, near, poly,
    rotations).  The boundary is laid out by turtle walk: from image k,
    run rho_k, the length of cuts[k], to corner k, turn by pi - cone_k,
    cone_k the cone angle at its vertex, run rho_k to image k + 1, turn
    by pi - sigma_k, sigma_k the angle at the source between cuts k and
    k + 1.  Image 0 is the origin and the walk starts at heading 0, so
    corner 0 is (L0, 0.0) exactly (the lengths are finite and >= 0), the
    heading there is pi - cone_0 (0.0 + a is a unless a is -0.0, which
    pi - cone_0 never is), and corner 0 lies at angle 0.0 from image 0.
    The checks run in the order: cut directions apart, closure, flank
    consistency, area, simplicity, foreign image; the first that fails
    raises its AmbiguousCut.  Every float is the expression of the
    reference loops in tests/test_star_layout.py on the same inputs in
    the same order, and every check and message is theirs.

    The charts are reflections.  The walk turns left by pi - sigma_{k-1}
    at image k, so seen from image k the plane direction of corner k - 1
    is that of corner k turned counter-clockwise by sigma_{k-1}, while
    cut k - 1 lies sigma_{k-1} clockwise of cut k in the chart: the map
    from chart angles to plane directions at image k reverses turning,
    rotations[k] - theta.  At image 0 the closing side's direction is the
    start heading plus the whole turn of the walk, sum(pi - cone_k) +
    sum(pi - sigma_k) = 2 pi: the cone angles sum to 4 pi (Gauss-Bonnet),
    and the sigmas to omega, which is 2 pi for four cuts and the cone
    angle of the source vertex for three, so the sum is 2 pi for both.
    So a layout that closes turns once counter-clockwise, and every
    image, image 0 included, sees a reflection to rounding.  The flank
    check therefore tests the reflection alone, whose constants
    rotations[k] = theta_k + phi_k it returns, and a star whose charts
    fail it raises the check's message at once.
    """
    (t0, v0, L0, _), (t1, v1, L1, _), (t2, v2, L2, _), (t3, v3, L3, _) = cuts
    s0, s1, s2 = t1 - t0, t2 - t1, t3 - t2
    s3 = omega - t3 + t0
    if s0 < 1e-9 or s1 < 1e-9 or s2 < 1e-9 or s3 < 1e-9:
        raise AmbiguousCut("cut directions collide at the source")

    # the turtle walk: image k at (ak, bk), corner k at (ck, dk)
    cos, sin, pi = math.cos, math.sin, math.pi
    c0, d0 = L0, 0.0
    h = pi - cone[v0]
    co, si = cos(h), sin(h)
    a1, b1 = c0 + L0 * co, d0 + L0 * si
    h += pi - s0
    co, si = cos(h), sin(h)
    c1, d1 = a1 + L1 * co, b1 + L1 * si
    h += pi - cone[v1]
    co, si = cos(h), sin(h)
    a2, b2 = c1 + L1 * co, d1 + L1 * si
    h += pi - s1
    co, si = cos(h), sin(h)
    c2, d2 = a2 + L2 * co, b2 + L2 * si
    h += pi - cone[v2]
    co, si = cos(h), sin(h)
    a3, b3 = c2 + L2 * co, d2 + L2 * si
    h += pi - s2
    co, si = cos(h), sin(h)
    c3, d3 = a3 + L3 * co, b3 + L3 * si
    h += pi - cone[v3]
    co, si = cos(h), sin(h)
    if math.hypot(c3 + L3 * co, d3 + L3 * si) > 1e-7 * scale:
        raise AmbiguousCut("star polygon failed to close")

    # flank consistency as a reflection: image k's constant is
    # r_k = theta_k + phi_k, phi_k the plane direction of corner k from
    # it, and the direction of corner k - 1, psi_k, must be within 1e-6
    # of r_k - (theta_k - sigma_{k-1}), mod 2 pi
    atan2, fmod, tp = math.atan2, math.fmod, _TWO_PI
    r0 = t0 + 0.0
    r1 = t1 + atan2(d1 - b1, c1 - a1)
    r2 = t2 + atan2(d2 - b2, c2 - a2)
    r3 = t3 + atan2(d3 - b3, c3 - a3)
    g0 = fmod(atan2(d3, c3) - (r0 - (t0 - s3)), tp)
    if g0 < 0.0:
        g0 += tp
    g1 = fmod(atan2(d0 - b1, c0 - a1) - (r1 - (t1 - s0)), tp)
    if g1 < 0.0:
        g1 += tp
    g2 = fmod(atan2(d1 - b2, c1 - a2) - (r2 - (t2 - s1)), tp)
    if g2 < 0.0:
        g2 += tp
    g3 = fmod(atan2(d2 - b3, c2 - a3) - (r3 - (t3 - s2)), tp)
    if g3 < 0.0:
        g3 += tp
    # the reflection fails at image k where psi_k is 1e-6 or more from its
    # expected direction either way round: min(g, tp - g) >= 1e-6
    if ((g0 >= 1e-6 and tp - g0 >= 1e-6) or (g1 >= 1e-6 and tp - g1 >= 1e-6)
            or (g2 >= 1e-6 and tp - g2 >= 1e-6)
            or (g3 >= 1e-6 and tp - g3 >= 1e-6)):
        raise AmbiguousCut("star polygon failed to close consistently")
    r0 = fmod(r0, tp)
    if r0 < 0.0:
        r0 += tp
    r1 = fmod(r1, tp)
    if r1 < 0.0:
        r1 += tp
    r2 = fmod(r2, tp)
    if r2 < 0.0:
        r2 += tp
    r3 = fmod(r3, tp)
    if r3 < 0.0:
        r3 += tp

    # intrinsic._shoelace from 0.0 over the sides in order, less the two at
    # the origin: each is a zero, which moves the sum by no more than the
    # sign of a zero, and abs drops that
    s = (0.0 + (c0 * b1 - a1 * d0) + (a1 * d1 - c1 * b1) + (c1 * b2 - a2 * d1)
         + (a2 * d2 - c2 * b2) + (c2 * b3 - a3 * d2) + (a3 * d3 - c3 * b3))
    if abs(abs(0.5 * s) - area) > 1e-6 * area:
        raise AmbiguousCut("star polygon area drifted from the surface area")
    i0, w0, i1, w1 = (0.0, 0.0), (c0, d0), (a1, b1), (c1, d1)
    i2, w2, i3, w3 = (a2, b2), (c2, d2), (a3, b3), (c3, d3)
    poly = (i0, w0, i1, w1, i2, w2, i3, w3)
    if not _octagon_simple(poly, 1e-9 * scale):
        raise AmbiguousCut("star polygon is not simple")
    dist = math.dist
    n0 = min(dist(w0, i0), dist(w0, i1), dist(w0, i2), dist(w0, i3))
    n1 = min(dist(w1, i0), dist(w1, i1), dist(w1, i2), dist(w1, i3))
    n2 = min(dist(w2, i0), dist(w2, i1), dist(w2, i2), dist(w2, i3))
    n3 = min(dist(w3, i0), dist(w3, i1), dist(w3, i2), dist(w3, i3))
    if (n0 < L0 * (1.0 - 1e-7) or n1 < L1 * (1.0 - 1e-7)
            or n2 < L2 * (1.0 - 1e-7) or n3 < L3 * (1.0 - 1e-7)):
        raise AmbiguousCut("vertex image closer to a foreign source image")
    return ((i0, i1, i2, i3), (w0, w1, w2, w3), (n0, n1, n2, n3), poly,
            (r0, r1, r2, r3))


def _hexagon_layout(cuts, omega, cone, area, scale):
    """_octagon_layout for a star with three cuts, from a vertex source:
    the 6-gon of three source images and three vertex images, with the
    same floats from the same expressions in the same order, the same
    checks in the same order and the same AmbiguousCut messages."""
    (t0, v0, L0, _), (t1, v1, L1, _), (t2, v2, L2, _) = cuts
    s0, s1 = t1 - t0, t2 - t1
    s2 = omega - t2 + t0
    if s0 < 1e-9 or s1 < 1e-9 or s2 < 1e-9:
        raise AmbiguousCut("cut directions collide at the source")

    # the turtle walk: image k at (ak, bk), corner k at (ck, dk)
    cos, sin, pi = math.cos, math.sin, math.pi
    c0, d0 = L0, 0.0
    h = pi - cone[v0]
    co, si = cos(h), sin(h)
    a1, b1 = c0 + L0 * co, d0 + L0 * si
    h += pi - s0
    co, si = cos(h), sin(h)
    c1, d1 = a1 + L1 * co, b1 + L1 * si
    h += pi - cone[v1]
    co, si = cos(h), sin(h)
    a2, b2 = c1 + L1 * co, d1 + L1 * si
    h += pi - s1
    co, si = cos(h), sin(h)
    c2, d2 = a2 + L2 * co, b2 + L2 * si
    h += pi - cone[v2]
    co, si = cos(h), sin(h)
    if math.hypot(c2 + L2 * co, d2 + L2 * si) > 1e-7 * scale:
        raise AmbiguousCut("star polygon failed to close")

    # flank consistency as a reflection, as in _octagon_layout
    atan2, fmod, tp = math.atan2, math.fmod, _TWO_PI
    r0 = t0 + 0.0
    r1 = t1 + atan2(d1 - b1, c1 - a1)
    r2 = t2 + atan2(d2 - b2, c2 - a2)
    g0 = fmod(atan2(d2, c2) - (r0 - (t0 - s2)), tp)
    if g0 < 0.0:
        g0 += tp
    g1 = fmod(atan2(d0 - b1, c0 - a1) - (r1 - (t1 - s0)), tp)
    if g1 < 0.0:
        g1 += tp
    g2 = fmod(atan2(d1 - b2, c1 - a2) - (r2 - (t2 - s1)), tp)
    if g2 < 0.0:
        g2 += tp
    if ((g0 >= 1e-6 and tp - g0 >= 1e-6) or (g1 >= 1e-6 and tp - g1 >= 1e-6)
            or (g2 >= 1e-6 and tp - g2 >= 1e-6)):
        raise AmbiguousCut("star polygon failed to close consistently")
    r0 = fmod(r0, tp)
    if r0 < 0.0:
        r0 += tp
    r1 = fmod(r1, tp)
    if r1 < 0.0:
        r1 += tp
    r2 = fmod(r2, tp)
    if r2 < 0.0:
        r2 += tp

    # the shoelace sum less its two zero sides at the origin, as in
    # _octagon_layout
    s = (0.0 + (c0 * b1 - a1 * d0) + (a1 * d1 - c1 * b1) + (c1 * b2 - a2 * d1)
         + (a2 * d2 - c2 * b2))
    if abs(abs(0.5 * s) - area) > 1e-6 * area:
        raise AmbiguousCut("star polygon area drifted from the surface area")
    i0, w0, i1, w1 = (0.0, 0.0), (c0, d0), (a1, b1), (c1, d1)
    i2, w2 = (a2, b2), (c2, d2)
    poly = (i0, w0, i1, w1, i2, w2)
    if not _hexagon_simple(poly, 1e-9 * scale):
        raise AmbiguousCut("star polygon is not simple")
    dist = math.dist
    n0 = min(dist(w0, i0), dist(w0, i1), dist(w0, i2))
    n1 = min(dist(w1, i0), dist(w1, i1), dist(w1, i2))
    n2 = min(dist(w2, i0), dist(w2, i1), dist(w2, i2))
    if (n0 < L0 * (1.0 - 1e-7) or n1 < L1 * (1.0 - 1e-7)
            or n2 < L2 * (1.0 - 1e-7)):
        raise AmbiguousCut("vertex image closer to a foreign source image")
    return (i0, i1, i2), (w0, w1, w2), (n0, n1, n2), poly, (r0, r1, r2)


