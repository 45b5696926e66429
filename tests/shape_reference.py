"""Angles of a tetrahedron's faces, and the isosceles test, kept as a
reference.

tetrametric measures its shapes by distances alone: its star unfoldings
order their cuts and pick a descent step's image by the signs of cross
products (intrinsic._star_cuts, intrinsic._descend), and no angle enters
the four measures.  The tests still check the surface's angles, Gauss-
Bonnet and the isosceles shapes' flat vertices among them, and the
reference angle chart (tests/ray_reference.py) is built from the face
corners, so they are computed here.
"""

import math

from tetrametric import FACES

# per face corner (f, v), in FACES order, v's two neighbours
_CORNERS = tuple((f, v) + tuple(w for w in FACES[f] if w != v)
                 for f in range(4) for v in FACES[f])


def corner_angles(T):
    """(face, vertex) -> the interior angle of that face corner, in FACES
    order: atan2(|u x w|, u . w) for the sides u, w from the vertex, which
    is stable near 0 and pi."""
    verts = T.vertices
    table = {}
    for f, v, i, j in _CORNERS:
        px, py, pz = verts[v]
        ux, uy, uz = verts[i][0] - px, verts[i][1] - py, verts[i][2] - pz
        wx, wy, wz = verts[j][0] - px, verts[j][1] - py, verts[j][2] - pz
        cx = uy * wz - uz * wy
        cy = uz * wx - ux * wz
        cz = ux * wy - uy * wx
        table[(f, v)] = math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz),
                                   ux * wx + uy * wy + uz * wz)
    return table


def cone_angles(T):
    """The total surface angle at each vertex: the sum of its three face
    corners, in FACES order."""
    totals = [0.0, 0.0, 0.0, 0.0]
    for (_, v), angle in corner_angles(T).items():
        totals[v] += angle
    return tuple(totals)


def is_isosceles(T, tol=1e-9):
    """True iff the three pairs of opposite edges have equal lengths, to a
    relative tol."""
    lengths = T.edge_lengths
    for i in range(3):
        a, b = lengths[i], lengths[5 - i]
        if abs(a - b) > tol * max(a, b):
            return False
    return True
