"""The geodesic ray walk and its angle chart, kept as the reference for
the star's pieces and its chart maps.

tetrametric maps a star point back to the surface through the star's
pieces (StarUnfolding.to_surface) and reads a path's edge crossings off
the star's edge images (intrinsic._path_crossings); each image's chart
map, its turn, is read off the source's cell (Tetrahedron.star_cells),
and the package reads no angle.  This module finds them another way, by
the walk and the chart the package used before: the angle chart at a
point is a sector per face around it (chart_sectors), built from the face
corners' angles (tests/shape_reference.py), and the geodesic ray from the
source, at its chart angle and of its length, develops the surface face
by face across the edges it leaves through, placing each next face's apex
by the face strip's step (tests/face_strip.py).  It shares no code with the
cells, so the tests hold the star to it.  The cuts' chart angles (cut_angles)
are taken from their directions, where the package's wedge choice reads only
the signs of cross products (intrinsic._descend), so the tests can hold that
choice to the angles (wedge_by_angle).
"""

import math

from tetrametric.errors import SearchExhausted
from tetrametric.geometry import (FACES, SurfacePoint, _EDGE_CHARTS,
                                  _VERTEX_FANS, _bary_in_triangle,
                                  _canonical_form, _trusted_point,
                                  apex_vertex, neighbor_face)

from chain_reference import _seg_cross_param
from face_strip import _place_apex, apex_offset
from polygon_loops import _signed_angle
from shape_reference import corner_angles

_TWO_PI = 2.0 * math.pi


def _unit2(v):
    n = math.hypot(v[0], v[1])
    return (v[0] / n, v[1] / n)


def chart_sectors(T, x):
    """Angle chart around x: (total angle, tuple of sectors).

    Each sector is (face, theta0, theta1, base2, ref2, sign): chart angle
    theta in [theta0, theta1] maps to the frame direction rot(ref2,
    sign*(theta-theta0)) at base2, the image of x in that face's frame.
    The chart covers 2*pi around interior and edge points and the cone
    angle around a vertex.
    """
    x = x.canonical()
    supp = x.support()
    if len(supp) == 3:
        f = x.face
        base = T.frame2(f, x.bary)
        sector = (f, 0.0, 2.0 * math.pi, base, (1.0, 0.0), 1.0)
        return 2.0 * math.pi, (sector,)
    if len(supp) == 2:
        return _edge_chart(T, x, supp)
    return _vertex_chart(T, supp[0])


def _edge_chart(T, x, edge):
    """chart_sectors(T, x) at x, canonical, on the sorted edge (a, b): a
    sector from angle 0 in the lower face f holding it, the edge ray
    toward b its reference, and one from angle pi in the other face g,
    toward a, each turning into the half plane of its face's apex."""
    f, g, ia, ib, ig, ja, jb, jf = _EDGE_CHARTS[edge]
    # x lies on f, its lowest face; on g it keeps the weights of a and b
    bary = x.bary
    nb = [0.0, 0.0, 0.0]
    nb[ja], nb[jb] = bary[ia], bary[ib]
    sectors = []
    for face, th0, w, i, j, k in ((f, 0.0, bary, ia, ib, ig),
                                  (g, math.pi, nb, ja, jb, jf)):
        corners = T.face_frames[face]
        base = T.frame2(face, w)
        A2, B2, C2 = corners[i], corners[j], corners[k]
        ref = _unit2((B2[0] - A2[0], B2[1] - A2[1]))
        if th0 > 0.0:
            ref = (-ref[0], -ref[1])
        # rotate from the edge ray into the wedge holding the apex
        cr = ref[0] * (C2[1] - base[1]) - ref[1] * (C2[0] - base[0])
        sign = 1.0 if cr > 0.0 else -1.0
        sectors.append((face, th0, th0 + math.pi, base, ref, sign))
    return 2.0 * math.pi, tuple(sectors)


def _vertex_chart(T, v):
    """chart_sectors(T, x) at vertex v: one sector per face of v's fan, in
    fan order, each spanning the face's corner angle at v."""
    sectors = []
    th = 0.0
    angles = corner_angles(T)
    for face, iv, ie, ix in _VERTEX_FANS[v]:
        corners = T.face_frames[face]
        base = corners[iv]
        E2 = corners[ie]
        X2 = corners[ix]
        ref = _unit2((E2[0] - base[0], E2[1] - base[1]))
        out = (X2[0] - base[0], X2[1] - base[1])
        sign = 1.0 if ref[0] * out[1] - ref[1] * out[0] > 0.0 else -1.0
        alpha = angles[(face, v)]
        sectors.append((face, th, th + alpha, base, ref, sign))
        th += alpha
    return th, tuple(sectors)


def _sector_angle(dx, dy, n, sector, omega):
    """Chart angle of the frame direction (dx, dy), of length n, within
    a sector of a chart of total angle omega: the signed angle from the
    sector's reference, turned by its sign, clamped into the sector."""
    _, th0, th1, _, ref, sign = sector
    sa = sign * _signed_angle(ref, (dx / n, dy / n))
    if sa < -1e-9:
        sa += 2.0 * math.pi
    sa = min(max(sa, 0.0), th1 - th0)
    return (th0 + sa) % omega


def _wrap(a, period):
    a = math.fmod(a, period)
    return a + period if a < 0.0 else a


def _rot2(v, ang):
    c, s = math.cos(ang), math.sin(ang)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def chart_angle(T, x, face, d2, sectors=None):
    """Chart angle at x of frame direction d2 within `face`."""
    omega, secs = sectors if sectors is not None else chart_sectors(T, x)
    for sector in secs:
        if sector[0] == face:
            return _sector_angle(d2[0], d2[1], math.hypot(d2[0], d2[1]),
                                 sector, omega)
    raise ValueError("face %d is not part of the chart at this point" % face)


def chart_direction(T, x, theta, sectors=None):
    """Invert the chart: (face, base2, unit frame direction) of angle theta."""
    omega, secs = sectors if sectors is not None else chart_sectors(T, x)
    theta = theta % omega
    for f, th0, th1, base, ref, sign in secs:
        if th0 - 1e-12 <= theta <= th1 + 1e-12:
            d2 = _rot2(ref, sign * (theta - th0))
            return f, base, d2
    raise ValueError("chart angle lookup failed")


def trace_ray(T, x, theta, length, sectors=None):
    """Surface point reached by the geodesic ray from x with chart angle theta.

    A ray that ends in its start face returns at once.  Otherwise it walks
    through an on-the-fly unfolding, face by face; face crossings never
    count against path optimality here, so the budget is generous.  The
    end's barycentric weights are clamped to [0, 1] and normalized, and
    the end is built in canonical form (SurfacePoint.canonical), so its
    canonical() returns it as is.
    """
    if length <= 0.0:
        return x.canonical()
    face, bary, _ = _ray(T, x, theta, length, sectors)
    # min(max(t, 0.0), 1.0) for each weight t, written out
    b = tuple([0.0 if t < 0.0 else 1.0 if t > 1.0 else t for t in bary])
    s = sum(b)
    b = (b[0] / s, b[1] / s, b[2] / s)
    if math.isnan(s):
        return SurfacePoint(face, b)  # which rejects the weights
    # clamped and normalized, the weights pass SurfacePoint's checks
    return _trusted_point(*_canonical_form(face, b))


def _ray(T, x, theta, length, sectors):
    """(face, bary, crossings) of the end of the geodesic ray from x at
    chart angle theta and of the given length: the face it ends in, the
    end's weights there, unclamped, and the edges it crosses on the way,
    as GeodesicPath.crossings lists them.  A ray that ends in its start
    face returns at once; any other is walked (_walk_ray)."""
    face, S2, d2 = chart_direction(T, x, theta, sectors)
    end = (S2[0] + length * d2[0], S2[1] + length * d2[1])
    bary = _bary_in_triangle(T.face_frames[face], end)
    if min(bary) < -1e-9:
        return _walk_ray(T, x, face, S2, end)
    return face, bary, ()


def _walk_ray(T, x, face, S2, end):
    """(face, bary, crossings) of the face where the planar ray S2 -> end
    from x ends, unfolding face by face across the edges it leaves
    through; crossings lists them as GeodesicPath.crossings does."""
    images = dict(zip(FACES[face], T.face_frames[face]))
    # a ray never leaves through an edge holding its source: from there it
    # would meet that edge again at s ~ 0
    entry = set(x.support())
    crossings = []
    for _ in range(64):
        # does the endpoint lie in the current triangle?
        bary = _bary_in_triangle(tuple(images[gi] for gi in FACES[face]),
                                 end)
        if min(bary) >= -1e-9:
            return face, bary, tuple(crossings)
        # otherwise find the exit edge and unfold across it
        best = None
        fvc = FACES[face]
        for i in range(3):
            xv, yv = fvc[i], fvc[(i + 1) % 3]
            if entry <= {xv, yv}:
                continue
            hit = _seg_cross_param(S2, end, images[xv], images[yv])
            if hit is None:
                continue
            t, s = hit
            if -1e-9 <= t <= 1.0 + 1e-9 and s > 1e-12:
                if best is None or s < best[0]:
                    best = (s, xv, yv, t)
        if best is None:
            raise SearchExhausted("ray tracing lost the surface")
        _, xv, yv, t = best
        t = min(max(t, 0.0), 1.0)
        crossings.append(((xv, yv), t) if xv < yv else ((yv, xv), 1.0 - t))
        nf = neighbor_face(face, xv, yv)
        cnew = apex_vertex(nf, xv, yv)
        u, h = apex_offset(T, (nf, xv, yv))
        P2 = images[apex_vertex(face, xv, yv)]
        C2 = _place_apex(images[xv], images[yv], P2, u, h)
        images = {xv: images[xv], yv: images[yv], cnew: C2}
        entry = {xv, yv}
        face = nf
    raise SearchExhausted("ray tracing exceeded its face budget")


def cut_angles(star):
    """(omega, angles): the total angle of the chart at the star's source
    and each cut's chart angle, in cut order, from the cuts' directions.

    A vertex source's chart is its fan's faces side by side, so its cut k
    lies at the sum of the fan's first k corner angles at the vertex, and
    omega is the vertex's cone angle, as chart_sectors has them.  A face
    point's chart is its face's frame (frame_angles).  An edge point's
    chart is read off the star: its cuts to the vertices off its edge (a,
    b) lie at the atan2 of their chart vectors, each corner seen through
    the image before it (StarUnfolding.transform_to_source), and its cuts
    to b and a along the chart's rays at 0 and pi.
    """
    T, x = star.tetra, star.source
    supp = x.support()
    if len(supp) == 3:
        return _TWO_PI, frame_angles(T, x, star.cuts)
    if len(supp) == 1:
        corners = corner_angles(T)
        angles = []
        th = 0.0
        for face, _, _, _ in _VERTEX_FANS[supp[0]]:
            angles.append(th)
            th += corners[(face, supp[0])]
        return th, tuple(angles)
    angles = []
    for k, w in enumerate(star.corners):
        cx, cy = star.transform_to_source(k, w)
        angles.append(math.atan2(cy, cx) % _TWO_PI)
    angles[0], angles[2] = 0.0, math.pi
    return _TWO_PI, tuple(angles)


def frame_angles(T, x, cuts):
    """The chart angles of the cuts of a face point x, in cut order: each
    the atan2, modulo 2 * pi, of its vector in x's face's frame, to its
    vertex's frame corner or, for the cut that crosses an edge, to the
    vertex developed across that edge (rim_table)."""
    f = x.face
    px, py = T.frame2(f, x.bary)
    angles = []
    for cut in cuts:
        if cut.crossings:
            ((edge, _),) = cut.crossings
            qx, qy = next(row[4] for row in T.rim_table[f] if row[:2] == edge)
        else:
            qx, qy = T.face_frames[f][FACES[f].index(cut.vertex)]
        rho = math.hypot(qx - px, qy - py)
        angles.append(math.atan2((qy - py) / rho, (qx - px) / rho) % _TWO_PI)
    return tuple(angles)


def wedge_by_angle(star, d):
    """The image whose wedge holds the chart vector d by the cuts' angles
    (cut_angles): the number of cuts at or below d's chart angle, read
    modulo omega, and 0 where that is every cut."""
    omega, angles = cut_angles(star)
    theta = math.atan2(d[1], d[0]) % omega
    k = sum([angle <= theta for angle in angles])
    return 0 if k == len(angles) else k


def to_chart(star, k, y2):
    """Chart angle and run length of star point y2 as seen through image k.

    Measured as an angle difference from the nearer flanking cut, which
    stays branch-safe for any wedge width below a full turn.
    """
    omega, angles = cut_angles(star)
    a = star.images[k]
    d_pt = (y2[0] - a[0], y2[1] - a[1])
    r = math.hypot(d_pt[0], d_pt[1])
    if r == 0.0:
        return angles[k], 0.0
    m = len(star.images)
    wi, wp = star.corners[k], star.corners[(k - 1) % m]
    d_i = (wi[0] - a[0], wi[1] - a[1])
    d_p = (wp[0] - a[0], wp[1] - a[1])
    # the chart is a reflection of the plane at every image: plane
    # angles turn against chart angles
    di, dp = _signed_angle(d_i, d_pt), _signed_angle(d_p, d_pt)
    if abs(di) <= abs(dp):
        theta = angles[k] - di
    else:
        theta = angles[(k - 1) % m] - dp
    return _wrap(theta, omega), r


def to_surface(star, k, y2):
    """The surface point developing at star point y2, reached through
    image k, by the walk: the end of the ray at y2's chart angle and run
    length from image k."""
    theta, r = to_chart(star, k, y2)
    if r <= 1e-15 * star.tetra.diam:
        return star.source
    return trace_ray(star.tetra, star.source, theta, r,
                     chart_sectors(star.tetra, star.source))


def path_crossings(star, k, y2):
    """The edge crossings of the path that develops as the segment from
    source image k to y2, by the walk: those of the ray from the source at
    y2's chart angle and of its run length."""
    theta, r = to_chart(star, k, y2)
    return _ray(star.tetra, star.source, theta, r,
                chart_sectors(star.tetra, star.source))[2]
