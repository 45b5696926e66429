"""Tetrahedron surface primitives: combinatorics, validation, planar unfolding.

Vertices are labeled 0..3.  Face i is the triangle opposite vertex i; with a
positively oriented vertex order the canonical face triples carry outward
normals.  Points on the surface are addressed by (face, barycentric) with a
deterministic canonical form for edge and vertex points: the lowest-index
incident face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import Collinear, DegenerateInput, NonAdjacent

# ---------------------------------------------------------------------------
# combinatorics

# Face i is opposite vertex i; outward-oriented when det[v1-v0,v2-v0,v3-v0]>0.
FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
# Edge i and edge 5-i are an opposite pair: (01,23), (02,13), (03,12).
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the vertices of each face in increasing order
_FACE_SUPPORT = tuple(tuple(sorted(fv)) for fv in FACES)

EDGE_INDEX = {}
for _i, (_a, _b) in enumerate(EDGES):
    EDGE_INDEX[(_a, _b)] = _i
    EDGE_INDEX[(_b, _a)] = _i

# geodesic windows stay open at vertex images: crossing parameters are
# confined to [TRIM, 1-TRIM], excluding paths through a positive-defect vertex
TRIM = 1e-12

# a barycentric weight at most this is zero: it leaves a point's support
SUPPORT_TOL = 1e-12

# GEOM_TOL * diam is the slack of comparisons between two exact values: tied
# chord distances, genuine cut-locus junctions, and the Rad margin
GEOM_TOL = 1e-9

# DEDUP_TOL is the relative slack under which two path lengths tie (a vertex
# with two shortest paths), the rounding step of crossing parameters in path
# signatures, and, times diam, the distance under which two planar points
# are one (cut-locus nodes)
DEDUP_TOL = 1e-7


def neighbor_face(f, a, b):
    """The other face containing edge (a, b)."""
    return 6 - a - b - f


def apex_vertex(f, a, b):
    """The vertex of face f not on edge (a, b)."""
    # sum(FACES[f]) = 6 - f, so the remaining vertex is 6 - f - a - b
    return 6 - f - a - b


def shared_edge(f, g):
    """Global vertex pair of the edge shared by faces f and g."""
    if f == g:
        raise NonAdjacent("a face does not neighbor itself")
    pair = tuple(v for v in range(4) if v != f and v != g)
    return pair


def faces_containing(support):
    """Faces whose closed triangle contains all vertices in `support`."""
    # face f omits exactly vertex f
    return tuple(f for f in range(4) if f not in support)


# ---------------------------------------------------------------------------
# small vector helpers (plain tuples; hot paths avoid array overhead)

def _sub3(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _norm3(u):
    return math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])


def _lerp2(A, B, t):
    return (A[0] + t * (B[0] - A[0]), A[1] + t * (B[1] - A[1]))


def dist3(u, v):
    return _norm3(_sub3(u, v))


def _angle3(u, v):
    """Angle between 3D vectors, stable near 0 and pi."""
    return math.atan2(_norm3(_cross3(u, v)), _dot3(u, v))


def _bary_in_triangle(corners, p2):
    """Barycentric coordinates of planar point p2 in the triangle `corners`."""
    a, b, c = corners
    d = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    v = ((p2[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (p2[1] - a[1])) / d
    w = ((b[0] - a[0]) * (p2[1] - a[1]) - (p2[0] - a[0]) * (b[1] - a[1])) / d
    return (1.0 - v - w, v, w)


def _circumcenter2(a, b, c, min_det=0.0):
    """Circumcenter of three planar points; None when |2 det| <= min_det."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) <= min_det:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return (ux, uy)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ToleranceConfig:
    """The two tolerances a caller can set.

    opt_tol, times diam, is the farthest-point window of
    intrinsic_radius_at: cut-locus nodes that close to the farthest
    distance are antipodes, and arcs that close along their length are a
    continuum.  Antipodes, and intrinsic_diameter's witness candidates,
    closer together than that are one point.  opt_tol / 100 is the floor of
    cut_locus's nudge.  quality_floor is the degeneracy threshold
    volume >= floor * longest_edge^3.
    """

    opt_tol: float = 1e-6
    quality_floor: float = 1e-6

    def __post_init__(self):
        if not (self.opt_tol > 0 and self.quality_floor > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.opt_tol < GEOM_TOL:
            raise ValueError("opt_tol must not be below GEOM_TOL")


DEFAULT_CFG = ToleranceConfig()


# ---------------------------------------------------------------------------
# surface points

@dataclass(frozen=True)
class SurfacePoint:
    """A point on the surface: face index plus barycentric coordinates.

    bary is taken over FACES[face] in table order.  Use canonical() to get
    the deterministic address for edge and vertex points.
    """

    face: int
    bary: tuple

    def __post_init__(self):
        if not 0 <= self.face <= 3:
            raise ValueError("face index out of range")
        b = tuple([float(x) for x in self.bary])
        if len(b) != 3:
            raise ValueError("bary must have three components")
        if not all(map(math.isfinite, b)):
            raise ValueError("bary must be finite")
        if min(b) < -1e-9 or abs(b[0] + b[1] + b[2] - 1.0) > 1e-9:
            raise ValueError("bary must be nonnegative and sum to 1")
        object.__setattr__(self, "bary", b)

    def support(self):
        """Global vertex ids with weight above SUPPORT_TOL."""
        b0, b1, b2 = self.bary
        if b0 > SUPPORT_TOL and b1 > SUPPORT_TOL and b2 > SUPPORT_TOL:
            return _FACE_SUPPORT[self.face]  # the common face-interior case
        return tuple(sorted([v for v, w in zip(FACES[self.face], self.bary)
                             if w > SUPPORT_TOL]))

    def canonical(self):
        """Snap near-zero weights and move to the lowest-index incident face."""
        b0, b1, b2 = self.bary
        # a face-interior point whose weights already sum to exactly 1.0 is
        # canonical: the path below would divide by 1.0 and keep its face
        if (b0 > SUPPORT_TOL and b1 > SUPPORT_TOL and b2 > SUPPORT_TOL
                and b0 + b1 + b2 == 1.0):
            return self
        b = [0.0 if x <= SUPPORT_TOL else x for x in self.bary]
        s = b[0] + b[1] + b[2]
        b = [x / s for x in b]
        fv = FACES[self.face]
        supp = sorted(fv[i] for i in range(3) if b[i] > 0.0)
        # the faces containing the point are exactly those not in its support
        target = min(f for f in range(4) if f not in supp)
        if target == self.face:
            b = tuple(b)
            # an already canonical point is returned as is; -0.0 compares
            # equal to the 0.0 it becomes, so a point holding one is rebuilt
            if b == self.bary and all(x != 0.0 or math.copysign(1.0, x) > 0.0
                                      for x in self.bary):
                return self
            return SurfacePoint(self.face, b)
        tv = FACES[target]
        nb = [0.0, 0.0, 0.0]
        for gi, val in zip(fv, b):
            if val > 0.0:
                nb[tv.index(gi)] = val
        return SurfacePoint(target, tuple(nb))


# one shared frozen point per vertex: vertex points are requested on every
# star unfolding and cut, and rebuilding them re-runs the bary validation
_VERTEX_POINTS = tuple(
    SurfacePoint(f, tuple(1.0 if gi == v else 0.0 for gi in FACES[f]))
    for v, f in ((0, 1), (1, 0), (2, 0), (3, 0)))


def vertex_point(v):
    """Canonical SurfacePoint at vertex v."""
    if v not in range(4):
        raise ValueError("vertex index out of range")
    return _VERTEX_POINTS[v]


def edge_point(a, b, t):
    """Canonical SurfacePoint at (1-t) a + t b on edge (a, b)."""
    if a == b:
        raise ValueError("edge endpoints must differ")
    face = min(f for f in range(4) if f != a and f != b)
    bary = [0.0, 0.0, 0.0]
    fv = FACES[face]
    bary[fv.index(a)] = 1.0 - t
    bary[fv.index(b)] = t
    return SurfacePoint(face, tuple(bary)).canonical()


def face_point(face, bary):
    """Canonical SurfacePoint from a face index and barycentric triple."""
    return SurfacePoint(face, tuple(bary)).canonical()


# ---------------------------------------------------------------------------
# the tetrahedron

@dataclass(frozen=True)
class Tetrahedron:
    """Four labeled 3D vertices with derived combinatorics.

    Construct through validate_tetrahedron, which fixes orientation and
    enforces the quality floor; most derived tables are cached lazily.
    """

    vertices: tuple

    @cached_property
    def edge_lengths(self):
        return tuple(dist3(self.vertices[a], self.vertices[b]) for a, b in EDGES)

    @cached_property
    def elen(self):
        """Edge length lookup keyed by ordered vertex pair (both orders)."""
        table = {}
        for i, (a, b) in enumerate(EDGES):
            table[(a, b)] = self.edge_lengths[i]
            table[(b, a)] = self.edge_lengths[i]
        return table

    @cached_property
    def longest_edge(self):
        """Index of the longest edge; lowest index wins ties."""
        lengths = self.edge_lengths
        return max(range(6), key=lambda i: (lengths[i], -i))

    @cached_property
    def diam(self):
        """Extrinsic diameter: the longest edge length."""
        return self.edge_lengths[self.longest_edge]

    @cached_property
    def volume(self):
        v0, v1, v2, v3 = self.vertices
        det = _dot3(_cross3(_sub3(v1, v0), _sub3(v2, v0)), _sub3(v3, v0))
        return abs(det) / 6.0

    @cached_property
    def face_frames(self):
        """Per face, 2D corner coordinates aligned with FACES order.

        Corner 0 at the origin, corner 1 on the positive x-axis, corner 2
        with positive y.  The frame is an isometric copy of the face.
        """
        frames = []
        for f in range(4):
            p, q, r = FACES[f]
            lpq = self.elen[(p, q)]
            lpr = self.elen[(p, r)]
            lqr = self.elen[(q, r)]
            x = (lpq * lpq + lpr * lpr - lqr * lqr) / (2.0 * lpq)
            y2 = lpr * lpr - x * x
            if y2 <= 0.0:
                raise DegenerateInput("face %d is degenerate" % f)
            frames.append(((0.0, 0.0), (lpq, 0.0), (x, math.sqrt(y2))))
        return tuple(frames)

    @cached_property
    def apex_table(self):
        """(face, a, b) -> (u, h): apex offsets along/off the directed edge a->b."""
        table = {}
        for g in range(4):
            verts = FACES[g]
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    a, b = verts[i], verts[j]
                    c = apex_vertex(g, a, b)
                    lab = self.elen[(a, b)]
                    lac = self.elen[(a, c)]
                    lbc = self.elen[(b, c)]
                    u = (lac * lac - lbc * lbc + lab * lab) / (2.0 * lab)
                    h2 = lac * lac - u * u
                    if h2 <= 0.0:
                        raise DegenerateInput("face %d is degenerate" % g)
                    table[(g, a, b)] = (u, math.sqrt(h2))
        return table

    @cached_property
    def rim_table(self):
        """Per face, its three edges developed into the face's frame.

        Entry i of face f describes edge (FACES[f][i], FACES[f][i+1]) as
        (a, b, A2, B2, C2, W1, W2, e): the sorted endpoints a < b, their
        frame images, the image of the neighbouring face's apex unfolded
        across the edge, the ends of the edge's [TRIM, 1-TRIM] window and
        the edge index.
        """
        rims = []
        for f in range(4):
            fv = FACES[f]
            frame = self.face_frames[f]
            rim = []
            for i in range(3):
                a, b = sorted((fv[i], fv[(i + 1) % 3]))
                A2, B2 = frame[fv.index(a)], frame[fv.index(b)]
                u, h = self.apex_table[(neighbor_face(f, a, b), a, b)]
                C2 = _place_apex(A2, B2, frame[fv.index(apex_vertex(f, a, b))],
                                 u, h)
                rim.append((a, b, A2, B2, C2, _lerp2(A2, B2, TRIM),
                            _lerp2(A2, B2, 1.0 - TRIM), EDGE_INDEX[(a, b)]))
            rims.append(tuple(rim))
        return tuple(rims)

    @cached_property
    def corner_angles(self):
        """(face, global vertex) -> interior angle of that face corner."""
        table = {}
        for f in range(4):
            for v in FACES[f]:
                others = [w for w in FACES[f] if w != v]
                u = _sub3(self.vertices[others[0]], self.vertices[v])
                w = _sub3(self.vertices[others[1]], self.vertices[v])
                table[(f, v)] = _angle3(u, w)
        return table

    @cached_property
    def cone_angles(self):
        """Total surface angle at each vertex (sum of incident face corners)."""
        totals = [0.0, 0.0, 0.0, 0.0]
        for (f, v), ang in self.corner_angles.items():
            totals[v] += ang
        return tuple(totals)

    @cached_property
    def face_areas(self):
        areas = []
        for f in range(4):
            p, q, r = (self.vertices[i] for i in FACES[f])
            areas.append(0.5 * _norm3(_cross3(_sub3(q, p), _sub3(r, p))))
        return tuple(areas)

    @cached_property
    def area(self):
        return sum(self.face_areas)

    @cached_property
    def scratch(self):
        """Mutable per-instance cache; holds the mesh oracle's lattice graphs."""
        return {}

    # -- point mappings ----------------------------------------------------

    def xyz(self, sp):
        """3D coordinates of a surface point."""
        p, q, r = (self.vertices[i] for i in FACES[sp.face])
        u, v, w = sp.bary
        return (u * p[0] + v * q[0] + w * r[0],
                u * p[1] + v * q[1] + w * r[1],
                u * p[2] + v * q[2] + w * r[2])

    def frame2(self, face, bary):
        """Frame coordinates of a barycentric point of `face`."""
        a, b, c = self.face_frames[face]
        u, v, w = bary
        return (u * a[0] + v * b[0] + w * c[0], u * a[1] + v * b[1] + w * c[1])

    def bary_from_frame2(self, face, p2):
        """Barycentric coordinates of a frame point of `face`."""
        return _bary_in_triangle(self.face_frames[face], p2)

    def bary_on_face(self, sp, face):
        """Express a surface point on another face containing its support."""
        if sp.face == face:
            return sp.bary
        supp = sp.support()
        if face in supp:
            raise ValueError("face %d does not contain the point" % face)
        fv_old = FACES[sp.face]
        fv_new = FACES[face]
        nb = [0.0, 0.0, 0.0]
        for gi, val in zip(fv_old, sp.bary):
            if val != 0.0:
                nb[fv_new.index(gi)] = val
        return tuple(nb)


def validate_tetrahedron(vertices, cfg=None):
    """Check, orient and wrap four 3D points as a Tetrahedron.

    A negatively oriented labeling is fixed by swapping vertices 2 and 3,
    so the canonical face table always carries outward normals.
    """
    cfg = cfg or DEFAULT_CFG
    verts = []
    for v in vertices:
        coords = tuple(float(c) for c in v)
        if len(coords) != 3:
            raise ValueError("each vertex needs three coordinates")
        if any(not math.isfinite(c) for c in coords):
            raise ValueError("vertex coordinates must be finite")
        verts.append(coords)
    if len(verts) != 4:
        raise ValueError("a tetrahedron needs four vertices")
    v0, v1, v2, v3 = verts
    det = _dot3(_cross3(_sub3(v1, v0), _sub3(v2, v0)), _sub3(v3, v0))
    if det < 0.0:
        verts[2], verts[3] = verts[3], verts[2]
        det = -det
    longest = max(dist3(a, b) for a, b in
                  ((verts[i], verts[j]) for i in range(4) for j in range(i + 1, 4)))
    if longest <= 0.0:
        raise DegenerateInput("all vertices coincide")
    volume = det / 6.0
    if volume < cfg.quality_floor * longest ** 3:
        raise DegenerateInput(
            "volume %.3e below quality floor %.3e * diam^3" % (volume, cfg.quality_floor))
    return Tetrahedron(tuple(verts))


# ---------------------------------------------------------------------------
# angles and curvature bookkeeping

def face_angle_sum(T, v):
    """Total surface angle at vertex v (sum of the three incident corners)."""
    if not 0 <= v <= 3:
        raise ValueError("vertex index out of range")
    return T.cone_angles[v]


def total_angle_defect(T):
    """Sum over vertices of 2*pi minus the vertex angle; 4*pi for any tetrahedron."""
    return sum(2.0 * math.pi - T.cone_angles[v] for v in range(4))


def total_angle(T, sp):
    """Total surface angle around a point: 2*pi off vertices, cone angle at one."""
    supp = sp.support()
    if len(supp) == 1:
        return T.cone_angles[supp[0]]
    return 2.0 * math.pi


def is_isosceles(T, tol=1e-9):
    """True iff the three opposite-edge pairs have equal lengths (relative tol)."""
    lengths = T.edge_lengths
    for i in range(3):
        a, b = lengths[i], lengths[5 - i]
        if abs(a - b) > tol * max(a, b):
            return False
    return True


def vertex_fan(T, v):
    """Incident faces ordered around vertex v.

    Returns a list of (face, entry, exit): within `face` the fan sweeps from
    edge (v, entry) to edge (v, exit); the next face shares edge (v, exit).
    Starts at the lowest-index incident face and its lowest-index neighbor
    vertex, closing cyclically after three faces.
    """
    f0 = 0 if v != 0 else 1
    others = sorted(w for w in FACES[f0] if w != v)
    fan = []
    face, entry = f0, others[0]
    for _ in range(3):
        exit_v = apex_vertex(face, v, entry)
        fan.append((face, entry, exit_v))
        face = neighbor_face(face, v, exit_v)
        entry = exit_v
    if face != f0 or entry != others[0]:
        raise RuntimeError("vertex fan failed to close")
    return fan


# ---------------------------------------------------------------------------
# planar triangles

@dataclass(frozen=True)
class Triangle2:
    """A planar triangle given by its three corner points."""

    a: tuple
    b: tuple
    c: tuple

    def sides(self):
        """Side lengths opposite corners a, b, c."""
        return (math.dist(self.b, self.c),
                math.dist(self.a, self.c),
                math.dist(self.a, self.b))


def _tri_guard(t, tol):
    sa, sb, sc = t.sides()
    scale = max(sa, sb, sc)
    area2 = abs((t.b[0] - t.a[0]) * (t.c[1] - t.a[1])
                - (t.c[0] - t.a[0]) * (t.b[1] - t.a[1]))
    if scale <= 0.0 or area2 <= tol * scale * scale:
        raise Collinear("triangle is degenerate within tolerance")
    return sa, sb, sc, scale


def triangle_is_acute(t, tol=1e-9):
    """True iff every angle is strictly acute, with slack tol * scale^2."""
    sa, sb, sc, scale = _tri_guard(t, tol)
    s2 = scale * scale
    a2, b2, c2 = sa * sa, sb * sb, sc * sc
    return (a2 + b2 - c2 > tol * s2 and
            b2 + c2 - a2 > tol * s2 and
            c2 + a2 - b2 > tol * s2)


def circumcenter(t, tol=1e-12):
    """Center of the circle through the three corners."""
    _tri_guard(t, tol)  # a triangle that passes has a nonzero determinant
    return _circumcenter2(t.a, t.b, t.c)


def longest_side(t, tol=1e-12):
    """Length of the longest side."""
    sa, sb, sc, _ = _tri_guard(t, tol)
    return max(sa, sb, sc)


# ---------------------------------------------------------------------------
# unfolding face sequences into the plane

@dataclass(frozen=True)
class UnfoldedStrip:
    """A face sequence laid out isometrically in the plane.

    corners[k] holds the planar images of FACES[faces[k]] in table order;
    crossed[k] is the (directed) shared vertex pair between levels k and k+1.
    """

    tetra: Tetrahedron
    faces: tuple
    corners: tuple
    crossed: tuple

    def point2(self, level, bary):
        """Planar image of a barycentric point of faces[level]."""
        a, b, c = self.corners[level]
        u, v, w = bary
        return (u * a[0] + v * b[0] + w * c[0], u * a[1] + v * b[1] + w * c[1])


def _place_apex(A2, B2, P2, u, h):
    """Apex position from edge images A2->B2, offsets (u, h), opposite side of P2."""
    ex, ey = B2[0] - A2[0], B2[1] - A2[1]
    elen = math.hypot(ex, ey)
    tx, ty = ex / elen, ey / elen
    side = 1.0 if (ex * (P2[1] - A2[1]) - ey * (P2[0] - A2[0])) > 0.0 else -1.0
    # place on the side away from P2
    nx, ny = -ty * (-side), tx * (-side)
    return (A2[0] + u * tx + h * nx, A2[1] + u * ty + h * ny)


def unfold_faces(T, seq):
    """Lay out a sequence of pairwise-adjacent faces isometrically in the plane.

    Consecutive faces must share an edge; immediate backtracking (f, g, f)
    is rejected.  Revisiting a face later in the sequence is allowed.
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("face sequence must be nonempty")
    for f in seq:
        if not 0 <= f <= 3:
            raise ValueError("face index out of range")
    corners = [T.face_frames[seq[0]]]
    crossed = []
    for k in range(1, len(seq)):
        f, g = seq[k - 1], seq[k]
        if f == g:
            raise NonAdjacent("consecutive faces are identical")
        if k >= 2 and seq[k - 2] == g:
            raise NonAdjacent("immediate backtrack in face sequence")
        a, b = shared_edge(f, g)
        fv_prev = FACES[f]
        prev = corners[-1]
        A2 = prev[fv_prev.index(a)]
        B2 = prev[fv_prev.index(b)]
        P2 = prev[fv_prev.index(apex_vertex(f, a, b))]
        c = apex_vertex(g, a, b)
        u, h = T.apex_table[(g, a, b)]
        C2 = _place_apex(A2, B2, P2, u, h)
        images = {a: A2, b: B2, c: C2}
        corners.append(tuple(images[gi] for gi in FACES[g]))
        crossed.append((a, b))
    return UnfoldedStrip(T, seq, tuple(corners), tuple(crossed))


# ---------------------------------------------------------------------------
# JSON forms

def tetrahedron_to_json(T):
    return {"vertices": [list(v) for v in T.vertices]}


def tetrahedron_from_json(obj):
    return validate_tetrahedron(obj["vertices"])


def surface_point_to_json(sp):
    return {"face": sp.face, "bary": list(sp.bary)}


def surface_point_from_json(obj):
    return SurfacePoint(int(obj["face"]), tuple(obj["bary"])).canonical()
