"""A face sequence laid out in the plane, kept as a reference.

The package develops the surface only as star unfoldings.  This module
lays out any sequence of pairwise-adjacent faces, one apex at a time from
the face frames and the apex table, so the tests can enumerate the
face-simple developments between two points independently of the star and
of the chain search.
"""

from dataclasses import dataclass

from tetrametric import FACES, Tetrahedron
from tetrametric.geometry import _place_apex, apex_vertex


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
        u, h = T.apex_table[(g, a, b)]
        C2 = _place_apex(A2, B2, P2, u, h)
        images = {a: A2, b: B2, c: C2}
        corners.append(tuple(images[gi] for gi in FACES[g]))
        crossed.append((a, b))
    return UnfoldedStrip(T, seq, tuple(corners), tuple(crossed))
