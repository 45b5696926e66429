"""The generic polygon loops: simplicity, point location and the side test.

tetrametric.planar runs one point test and one side test on both star
polygons, the 8-gon of a face-interior or edge source and the 6-gon of a
vertex source (_point_in_star, _star_sides_within).  Each takes the same
floats from the same expressions as these loops, so the tests hold them
equal to the loops, which work on any polygon.  The package checks no
star for simplicity (a star unfolding never overlaps itself); the tests
do, with _polygon_simple on the side gaps of _seg_gap.  reduced_polygon
drops a polygon's straight corners, as the tests read a vertex source's
star, a triangle with a straight corner at each source image.
"""

import math

from tetrametric.geometry import _orient, _pt_seg2


def _signed_angle(u, v):
    """Angle turning planar vector u into v, in (-pi, pi]."""
    return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])


def reduced_polygon(poly, tol=1e-7):
    """The polygon poly with its straight corners, those that turn by at
    most tol, removed."""
    n = len(poly)
    out = []
    for i in range(n):
        p, q, r = poly[(i - 1) % n], poly[i], poly[(i + 1) % n]
        u = (q[0] - p[0], q[1] - p[1])
        v = (r[0] - q[0], r[1] - q[1])
        if abs(_signed_angle(u, v)) > tol:
            out.append(q)
    return tuple(out)


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


def _polygon_simple(poly, tol):
    """No two non-adjacent sides of the closed polygon come within tol:
    each side's bounding box is found once, and a pair whose boxes come
    within tol is decided by _seg_gap.  At tol 0 a polygon is simple when
    no two such sides cross or touch."""
    n = len(poly)
    sides = []
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        x0, x1 = (p[0], q[0]) if p[0] <= q[0] else (q[0], p[0])
        y0, y1 = (p[1], q[1]) if p[1] <= q[1] else (q[1], p[1])
        sides.append((p, q, x0, x1, y0, y1))
    for i in range(n):
        p, q, x0, x1, y0, y1 = sides[i]
        for j in range(i + 2, n - 1 if i == 0 else n):
            r, s, u0, u1, v0, v1 = sides[j]
            if u0 - x1 > tol or x0 - u1 > tol or v0 - y1 > tol or y0 - v1 > tol:
                continue
            if _seg_gap(p, q, r, s) <= tol:
                return False
    return True


def _point_in_polygon(pt, poly, tol):
    """Even-odd test; a point outside within tol of the boundary is inside."""
    n = len(poly)
    px, py = pt
    inside = False
    # the parity does not depend on which side is counted first
    x1, y1 = poly[-1]
    for x2, y2 in poly:
        if (y1 > py) != (y2 > py):
            xc = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
            if px < xc:
                inside = not inside
        x1, y1 = x2, y2
    return inside or any(_side_within(pt, poly[i], poly[(i + 1) % n], tol)
                         for i in range(n))


def _side_within(pt, a, b, tol):
    """Whether pt lies within tol of segment ab: a point more than tol
    outside the segment's bounding box is settled without _pt_seg2."""
    px, py = pt
    if ((a[0] - px > tol and b[0] - px > tol)
            or (px - a[0] > tol and px - b[0] > tol)
            or (a[1] - py > tol and b[1] - py > tol)
            or (py - a[1] > tol and py - b[1] > tol)):
        return False
    return _pt_seg2(pt, a, b) <= tol
