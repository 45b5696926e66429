"""Chord (straight-line) size measures of the tetrahedron surface.

The farthest surface point from any fixed point is a vertex, because the
chord distance to a point of a flat face or edge is maximized at one of its
corners.  Consequently the chord diameter is the longest edge, and the chord
eccentricity of a surface point is its largest distance to the four
vertices.  The chord radius minimizes that eccentricity over the surface.

Every point of space lies at least r_SEB from some vertex, where r_SEB is
the radius of the smallest ball holding the four vertices (Welzl 1991).  So
when that ball's center lies on the surface it is a chord-radius center and
rad = r_SEB.  It does exactly when the ball rests on at most three
vertices: on two, its center is the midpoint of the longest edge; on three,
the circumcenter of a face with no obtuse angle.  Both are tested first,
each against a lower bound on rad (half the longest edge, or the face's
circumradius), and a center whose eccentricity is within GEOM_TOL * diam
of its bound is returned.

Otherwise the ball rests on all four vertices and its center c is inside
the solid K, and the radius is found face by face, each over its whole
plane.  g(p) = max_v |p - v|^2 is strictly convex, so each plane carries a
unique minimum with one, two or three vertices active, and a finite set of
stationary candidates (vertex feet, equal-distance line feet and points)
holds it to machine precision.  The face constraints can be left out, as
g's minimum over space is at c, which always lies in K: if a face's plane
minimizer p lies outside its triangle, the segment from c to p leaves K at
a surface point q with g(q) < g(p).  So rad^2 is the least of the four
plane minima, and the winning face's plane minimizer lies in its own
triangle.  When c is on the surface it is the minimizer of the face
through it, so the argument holds for every shape.
"""

from dataclasses import dataclass
import math

from .geometry import (EDGES, FACES, GEOM_TOL, SurfacePoint, _cross3, _dot3,
                       _norm3, _sub3, edge_point, face_point)

__all__ = [
    "FarthestSet",
    "ChordDiameter",
    "ChordRadius",
    "extrinsic_diameter",
    "extrinsic_radius_at",
    "extrinsic_radius",
]


@dataclass(frozen=True)
class FarthestSet:
    """Largest chord distance from a fixed surface point, with its witnesses.

    vertices lists every vertex id attaining the maximum within
    GEOM_TOL * diam of the instance it was computed on.
    """

    distance: float
    vertices: tuple

    def to_json(self):
        return {"distance": self.distance, "vertices": list(self.vertices)}


@dataclass(frozen=True)
class ChordDiameter:
    """Longest chord of the surface: an edge, reported with its endpoints."""

    value: float
    pair: tuple


@dataclass(frozen=True)
class ChordRadius:
    """Smallest chord eccentricity over the surface and where it is attained."""

    value: float
    center: SurfacePoint
    farthest: FarthestSet


def extrinsic_diameter(T):
    """Longest chord between two surface points.

    Both endpoints of a longest chord are vertices, so this is the longest
    edge; ties break toward the lowest edge index.
    """
    i = T.longest_edge
    return ChordDiameter(T.edge_lengths[i], EDGES[i])


def _farthest_set(distance, vertices):
    """FarthestSet(distance, vertices) without the frozen __init__, as
    intrinsic._cut_node builds a node: the same frozen dataclass, fields,
    equality and repr."""
    fs = object.__new__(FarthestSet)
    d = fs.__dict__
    d["distance"] = distance
    d["vertices"] = vertices
    return fs


def extrinsic_radius_at(T, x):
    """Largest chord distance from surface point x, with attaining vertices.

    Each vertex's distance is dist3 from x's point, written out."""
    px, py, pz = T.xyz(x)
    ds = []
    for vx, vy, vz in T.vertices:
        dx, dy, dz = px - vx, py - vy, pz - vz
        ds.append(math.sqrt(dx * dx + dy * dy + dz * dz))
    top = max(ds)
    low = top - GEOM_TOL * T.diam
    return _farthest_set(top, tuple([v for v in range(4) if ds[v] >= low]))


# ---------------------------------------------------------------------------
# per-face minimization

def _face_sites(T, f):
    """Chart projections (qx, qy) and squared heights of all 4 vertices.

    The chart is the isometric 2D frame of face f used by face_frames, so
    bary_from_frame2 applies to chart points directly.
    """
    p_ids = FACES[f]
    origin = T.vertices[p_ids[0]]
    d1 = _sub3(T.vertices[p_ids[1]], origin)
    d2 = _sub3(T.vertices[p_ids[2]], origin)
    n = _cross3(d1, d2)
    nn = _norm3(n)
    n = (n[0] / nn, n[1] / nn, n[2] / nn)
    l1 = _norm3(d1)
    e1 = (d1[0] / l1, d1[1] / l1, d1[2] / l1)
    e2 = _cross3(n, e1)
    sites = []
    for v in range(4):
        d = _sub3(T.vertices[v], origin)
        h = _dot3(d, n)
        sites.append((_dot3(d, e1), _dot3(d, e2), h * h))
    return sites


def _plane_candidates(sites, scale):
    """Stationary points of the eccentricity over the whole chart plane.

    Covers active sets of size 1 (foot of a vertex), 2 (foot of the shared
    center line on the equal-distance line), and 3 (equal-distance point of
    the triple); a fourfold tie is an equal-distance point of its triples.
    """
    cands = [(q[0], q[1]) for q in sites]
    n = len(sites)
    rows = {}
    for u in range(n):
        qu = sites[u]
        for v in range(u + 1, n):
            qv = sites[v]
            dx, dy = qv[0] - qu[0], qv[1] - qu[1]
            # equal distance: 2 p . (q_v - q_u) = (|q_v|^2 + h_v^2) - (|q_u|^2 + h_u^2)
            c = (qv[0] * qv[0] + qv[1] * qv[1] - qu[0] * qu[0] - qu[1] * qu[1]
                 + qv[2] - qu[2])
            rows[(u, v)] = (2.0 * dx, 2.0 * dy, c)
            d2 = dx * dx + dy * dy
            if d2 <= (1e-12 * scale) ** 2:
                continue
            t = (0.5 * c - (qu[0] * dx + qu[1] * dy)) / d2
            cands.append((qu[0] + t * dx, qu[1] + t * dy))
    for u in range(n):
        for v in range(u + 1, n):
            a1, b1, c1 = rows[(u, v)]
            for w in range(v + 1, n):
                a2, b2, c2 = rows[(u, w)]
                det = a1 * b2 - a2 * b1
                if abs(det) <= 1e-12 * scale * scale:
                    continue
                cands.append(((c1 * b2 - c2 * b1) / det,
                              (a1 * c2 - a2 * c1) / det))
    return cands


def _face_minimum(T, f):
    """Unique minimizer of the chord eccentricity over face f's plane.  It
    may lie outside the face; then the segment to it from the ball's
    center, in the solid, leaves the solid at a lower point, so the least
    of the four planes' minima lies in its own triangle and is rad."""
    sites = _face_sites(T, f)
    # the eccentricity max_v sqrt(|p - q_v|^2 + h_v^2) of each candidate,
    # pruned: once one squared distance reaches the incumbent's square, the
    # candidate cannot come out below it, as sqrt is monotone
    best, best2, best_p = math.inf, math.inf, None
    for p in _plane_candidates(sites, T.diam):
        top = 0.0
        for (qx, qy, h2) in sites:
            dx, dy = p[0] - qx, p[1] - qy
            d2 = dx * dx + dy * dy + h2
            if d2 > top:
                if d2 >= best2:
                    break
                top = d2
        else:
            val = math.sqrt(top)
            if val < best:
                best, best2, best_p = val, top, p
    return best, best_p


def _enumerated_radius(T):
    """The chord radius as the least of the four plane minima.

    g(p) = max_v |p - v|^2 is strictly convex with its minimum at the
    smallest enclosing ball's center c, inside the solid K.  A plane
    minimizer p outside its face's triangle is beaten by the point where
    the segment from c to p leaves K, so the least plane minimum is rad^2
    and its minimizer lies in its own triangle; when c is on the surface it
    is the minimizer of the face through it.  Ties break toward the lowest
    face index; congruent faces tie to rounding, so the last bits pick
    among them.  The winner's weights are clipped at 0 against rounding.
    """
    best = None
    for f in range(4):
        val, p2 = _face_minimum(T, f)
        if best is None or val < best[0]:
            best = (val, f, p2)
    val, f, p2 = best
    bary = T.bary_from_frame2(f, p2)
    clipped = [max(x, 0.0) for x in bary]
    s = clipped[0] + clipped[1] + clipped[2]
    center = face_point(f, tuple(x / s for x in clipped))
    fs = extrinsic_radius_at(T, center)
    return ChordRadius(fs.distance, center, fs)


def _certified_radius(T):
    """The chord radius at the smallest enclosing ball's center, when that
    center is on the surface, or None.

    The midpoint of the longest edge is certified when its eccentricity is
    within GEOM_TOL * diam of diam/2; failing that, each face with no obtuse
    angle is certified when its circumcenter's eccentricity is within
    GEOM_TOL * diam of its circumradius, and the lowest value wins, the
    lowest face on ties.
    """
    margin = GEOM_TOL * T.diam
    mid = edge_point(*EDGES[T.longest_edge], 0.5)
    fs = extrinsic_radius_at(T, mid)
    if fs.distance <= 0.5 * T.diam + margin:
        return ChordRadius(fs.distance, mid, fs)
    best = None
    for f in range(4):
        p, q, r = FACES[f]
        a2, b2, c2 = (T.elen[e] ** 2 for e in ((q, r), (r, p), (p, q)))
        # barycentric weights of the circumcenter; one is negative exactly
        # when the face is obtuse, and their sum is 16 area^2
        w = (a2 * (b2 + c2 - a2), b2 * (c2 + a2 - b2), c2 * (a2 + b2 - c2))
        if min(w) < 0.0:
            continue
        s = w[0] + w[1] + w[2]
        # the circumradius abc / (4 area) bounds the eccentricity of every
        # point of space, as no ball smaller holds the face's corners
        r2 = a2 * b2 * c2 / s
        bound = math.sqrt(r2) + margin
        # vertex f, off the face, lies sqrt(sum w_i |f v_i|^2 / s - r2)
        # from the circumcenter; beyond the bound the face fails unbuilt
        far2 = (w[0] * T.elen[(f, p)] ** 2 + w[1] * T.elen[(f, q)] ** 2
                + w[2] * T.elen[(f, r)] ** 2) / s - r2
        if far2 > bound * bound:
            continue
        center = face_point(f, (w[0] / s, w[1] / s, w[2] / s))
        fs = extrinsic_radius_at(T, center)
        if fs.distance <= bound and (best is None
                                     or fs.distance < best.value):
            best = ChordRadius(fs.distance, center, fs)
    return best


def extrinsic_radius(T):
    """Smallest chord eccentricity over the surface.

    When the smallest ball holding the four vertices has its center on the
    surface (the midpoint of the longest edge, or the circumcenter of a
    face with no obtuse angle), that center is returned with its
    eccentricity, certified to GEOM_TOL * diam (_certified_radius).  Only
    when neither test passes, as when the ball rests on all four vertices,
    are the four face planes' minima compared (_enumerated_radius).
    """
    r = _certified_radius(T)
    return r if r is not None else _enumerated_radius(T)
