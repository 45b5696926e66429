"""A face sequence laid out in the plane, kept as a reference.

The package develops the surface only as star unfoldings.  This module
lays out any sequence of pairwise-adjacent faces, one apex at a time from
the face frames and the edge lengths, so the tests can enumerate the
face-simple developments between two points independently of the star and
of the chain search.  Its step across an edge, apex_offset and _place_apex,
is the one the package used before it developed every face with
geometry._develop; the reference walks (tests/chain_reference.py,
tests/ray_reference.py) take it from here.
"""

import math
from dataclasses import dataclass

from tetrametric import FACES, Tetrahedron
from tetrametric.errors import DegenerateInput
from tetrametric.geometry import apex_vertex


def apex_offset(T, key):
    """(u, h) for key = (g, a, b): the vertex c = apex_vertex(g, a, b) of
    face g lies u along the directed edge a->b from a and h off it."""
    g, a, b = key
    c = apex_vertex(g, a, b)
    lab, lac, lbc = T.elen[(a, b)], T.elen[(a, c)], T.elen[(b, c)]
    u = (lac * lac - lbc * lbc + lab * lab) / (2.0 * lab)
    h2 = lac * lac - u * u
    if h2 <= 0.0:
        raise DegenerateInput("face %d is degenerate" % g)
    return u, math.sqrt(h2)


def _place_apex(A2, B2, P2, u, h):
    """Apex position from edge images A2->B2, offsets (u, h), opposite side of P2."""
    ex, ey = B2[0] - A2[0], B2[1] - A2[1]
    elen = math.hypot(ex, ey)
    tx, ty = ex / elen, ey / elen
    side = 1.0 if (ex * (P2[1] - A2[1]) - ey * (P2[0] - A2[0])) > 0.0 else -1.0
    # place on the side away from P2
    nx, ny = -ty * (-side), tx * (-side)
    return (A2[0] + u * tx + h * nx, A2[1] + u * ty + h * ny)


def shared_edge(f, g):
    """Global vertex pair of the edge shared by faces f and g."""
    if f == g:
        raise ValueError("a face does not neighbor itself")
    pair = tuple(v for v in range(4) if v != f and v != g)
    return pair


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
            raise ValueError("consecutive faces are identical")
        if k >= 2 and seq[k - 2] == g:
            raise ValueError("immediate backtrack in face sequence")
        a, b = shared_edge(f, g)
        fv_prev = FACES[f]
        prev = corners[-1]
        A2 = prev[fv_prev.index(a)]
        B2 = prev[fv_prev.index(b)]
        P2 = prev[fv_prev.index(apex_vertex(f, a, b))]
        c = apex_vertex(g, a, b)
        C2 = _place_apex(A2, B2, P2, *apex_offset(T, (g, a, b)))
        images = {a: A2, b: B2, c: C2}
        corners.append(tuple(images[gi] for gi in FACES[g]))
        crossed.append((a, b))
    return UnfoldedStrip(T, seq, tuple(corners), tuple(crossed))
