"""The generic polygon loops: simplicity, point location and the side test.

tetrametric.planar writes the simplicity check out for the two star
polygons, the 8-gon of a face-interior or edge source and the 6-gon of a
vertex source (_octagon_simple, _hexagon_simple), and runs one point test
and one side test on both (_point_in_star, _star_sides_within).  Each
takes the same floats from the same expressions as these loops, so the
tests hold them equal to the loops, which work on any polygon.
"""

from tetrametric.geometry import _pt_seg2
from tetrametric.planar import _sides_near


def _polygon_simple(poly, tol):
    """No two non-adjacent sides of the closed polygon come within tol
    (_segments_within, with each side's bounding box found once, and a
    pair whose boxes come within tol tried by its lines first,
    _sides_near)."""
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
            if _sides_near(p, q, r, s, tol):
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
