"""Intrinsic metrics of tetrahedron surfaces.

Star unfoldings, the shortest paths read off them, cut loci, farthest-point
sets, and the geodesic radius and diameter they induce.  The
star unfolding develops the surface, cut along the shortest paths from a
source to every vertex, into a planar polygon with one image of the source
per cut sector.  Shortest-path distance to the source then equals
straight-line distance to the nearest source image, which turns
point-to-point, cut-locus and farthest-point questions into planar
nearest-site geometry (geodesics.py serves the point-to-point paths).  The
star is the union of a few rigid copies of faces, its pieces, fixed within
a cell of the surface: a star is placed on its source's cell
(Tetrahedron.star_cells, planar._layout), not walked out from its cuts.
The cell's table of pieces, each a face copy clipped to the part of the
face it lays out, maps both ways: a surface point to its star position
(_star_position) and a star point back to the surface
(StarUnfolding.to_surface), through the copy whose clip holds it (_slack),
and a path's edge crossings are read off the star's edge images
(_path_crossings).  The cell also gives each source image its chart map,
the reflection read off its petal's copy (StarUnfolding.turns), and the
order of every source's cuts, its chart's (_star_cuts).
The cut locus is the Voronoi diagram of the source images restricted to the
star polygon (Agarwal, Aronov, O'Rourke & Schevon, SIAM J. Comput. 1997); its
junction candidates, the non-dominated circumcenters, are enumerated once,
where the star is built (StarUnfolding.junctions), for both the cut locus
and the radius probe.  The radius search's model and step are minimax.py's;
its seeds, budgets and descents are here.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Optional

from .errors import AmbiguousCut, SearchExhausted
from .geometry import (
    DEDUP_TOL,
    DEFAULT_CFG,
    EDGES,
    FACES,
    GEOM_TOL,
    SurfacePoint,
    _EDGE_CHARTS,
    _VERTEX_FANS,
    _canonical_form,
    _first_read,
    _lerp2,
    _memo,
    _orient,
    _pt_seg2,
    _trusted_point,
    dist3,
    edge_point,
    face_point,
    vertex_point,
)
from .locus import _FLANKS, _LOCUS_PLANS, _TRIPLE_PAIRS, _ring_pairs
from .minimax import _node_models, _step, _with_hessians
from .planar import (
    _circumcenters,
    _group_junctions,
    _layout,
    _point_in_star,
    _star_sides_within,
)

Vec2 = tuple


# ---------------------------------------------------------------------------
# planar helpers

def _shoelace(poly):
    s = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


# ---------------------------------------------------------------------------
# star unfolding

# no surface distance exceeds (2/sqrt(3)) * longest edge
CAP_RATIO = 2.0 / math.sqrt(3.0)


def _cap(scale):
    """Longest straight development kept as a candidate: the CAP_RATIO
    bound with a little rounding room."""
    return CAP_RATIO * scale * (1.0 + 1e-9) + 1e-14 * scale


class CutPath(namedtuple("CutPath", "vertex length crossings")):
    """One cut of a star unfolding: the shortest path from the source to a vertex.

    crossings lists the (edge, t) points where it crosses tetrahedron
    edges, from the source on, as GeodesicPath.crossings does.  Only the
    opposite cut of a face-interior source has any: it crosses one edge of
    the source's face, once (_opposite_cut).  Every other cut runs
    straight in a face that holds the source, or along an edge.  The SVG's
    edge images are read off the star on this (_edge_pieces).  A cut
    carries no direction: its chart vector is its corner seen from an
    image next to it (StarUnfolding.transform_to_source).
    """

    __slots__ = ()


class StarUnfolding(namedtuple("StarUnfolding", "tetra source cuts "
                               "images corners near poly turns "
                               "junctions pieces")):
    """Planar development of the surface cut along shortest paths to the vertices.

    The boundary polygon ``poly`` alternates source images ``images[k]``
    and vertex images ``corners[k]``, counterclockwise; both sides
    flanking ``corners[k]`` develop the cut ``cuts[k]``, so they share its
    length.  It is a 6-gon from a vertex source and an 8-gon from any
    other; its readers work on either alike.  ``near[k]`` is the distance
    from ``corners[k]`` to its nearest source image: the cut's length, or
    a foreign image's distance where that is shorter (planar._layout).
    Every chart of a star is a reflection of the plane: seen from
    ``images[k]``, the chart vector d at the source is the plane vector
    R_k d, with R_k = [[c, s], [s, -c]] for (c, s) = ``turns[k]``, and
    R_k, its own inverse, takes plane vectors back to the chart.  (c, s)
    is the plane direction of the chart's x axis, read off the cell
    (Tetrahedron.star_cells), so every star of a cell has the same turns.
    The cuts run counterclockwise around the source in the chart, and the
    polygon turns counterclockwise through the corners in that order, the
    way that turns the plane's directions at each image clockwise; the
    star's cell is laid out as the face frames' mirror image wherever that
    makes it so.  Image k's wedge in the chart runs from cut k - 1's
    chart vector, transform_to_source(k - 1, corners[k - 1]), to cut k's.
    ``junctions`` are the images' junction candidates,
    planar._circumcenters(images, diam), falling by value: the probe
    (_read_farthest) and the cut locus (_voronoi_locus) read them from
    here.  ``pieces`` are the star's pieces, the rigid copies of faces
    that it is the union of: the petal around each image, in image order,
    then the cell's others (Tetrahedron.star_cells); a surface point
    develops in the one whose clip holds it (_star_position), and a star
    point maps back through it (to_surface).  A named tuple is cheap to
    build, once per radius probe.
    """

    __slots__ = ()

    def area(self):
        return abs(_shoelace(self.poly))

    def to_surface(self, k, y2):
        """The surface point that develops at the star point y2.

        y2's weights on the three star points of a piece are its weights
        on the piece's face, so the point is read off the first piece
        whose clip holds them (_slack), from image k's petal on (from the
        cell's other pieces on where k is the number of images), and built
        canonical.  A point in no clip, as rounding leaves one on a
        side, takes the piece whose clip it misses least if it lies in the
        polygon within DEDUP_TOL * diam, as junctions may (_voronoi_locus),
        with its weights clamped into the face; farther out it raises
        SearchExhausted.  The first piece, where most reads end (a descent
        step's end mostly lies in image k's petal), is read written out,
        with _piece_weights's and _slack's expressions; the others are
        tried only where it misses.
        """
        piece = self.pieces[k]
        face, ((ax, ay), (bx, by), (cx, cy)), z, apex, side = piece
        px, py = y2
        d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        b = (((bx - px) * (cy - py) - (by - py) * (cx - px)) / d,
             ((cx - px) * (ay - py) - (cy - py) * (ax - px)) / d,
             ((ax - px) * (by - py) - (ay - py) * (bx - px)) / d)
        y = apex or self.tetra.bary_on_face(self.source, face)
        r = b[z] / y[z]
        rest = [b[0] - r * y[0], b[1] - r * y[1], b[2] - r * y[2]]
        rest[z] = r
        least = min(rest)
        if side:
            i, j, s = side
            t = _crossing(self)[1]
            least = min(least, s * (rest[i] * t - rest[j] * (1.0 - t)))
        if not least >= 0.0:
            piece, b = self._nearest_clip(k, least, piece, b, y2)
        b0, b1, b2 = b
        b0 = 0.0 if b0 < 0.0 else 1.0 if b0 > 1.0 else b0
        b1 = 0.0 if b1 < 0.0 else 1.0 if b1 > 1.0 else b1
        b2 = 0.0 if b2 < 0.0 else 1.0 if b2 > 1.0 else b2
        s = b0 + b1 + b2
        # clamped and normalized, the weights pass SurfacePoint's checks
        return _trusted_point(*_canonical_form(piece[0],
                                               (b0 / s, b1 / s, b2 / s)))

    def _nearest_clip(self, k, least, best, weights, y2):
        """(piece, weights) of to_surface's read where image k's first
        piece, best, misses its clip by least with the weights: the first
        of the other pieces, in to_surface's order, whose clip holds y2's
        weights, else the one whose clip they miss least, or
        SearchExhausted where y2 lies outside the polygon by more than
        DEDUP_TOL * diam."""
        pieces = self.pieces
        best = (best, weights)
        for piece in pieces[k + 1:] + pieces[:k]:
            b = _piece_weights(piece[1], y2)
            s = _slack(self, piece, b)
            if s >= 0.0:
                return piece, b
            if s > least:
                least, best = s, (piece, b)
        if not _point_in_star(y2, self.poly, DEDUP_TOL * self.tetra.diam):
            raise SearchExhausted("the point lies outside the star")
        return best

    def transform_to_source(self, k, y2):
        """Map a point of image k's cell into the source-centred development:
        R_k (y2 - images[k]), R_k the chart map of image k."""
        a = self.images[k]
        c, s = self.turns[k]
        dx, dy = y2[0] - a[0], y2[1] - a[1]
        return (c * dx + s * dy, s * dx - c * dy)


def _piece_weights(points, y2):
    """y2's planar weights on the three points a, b, c: the signed areas
    of ybc, yca and yab over that of abc."""
    (ax, ay), (bx, by), (cx, cy) = points
    px, py = y2
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (((bx - px) * (cy - py) - (by - py) * (cx - px)) / d,
            ((cx - px) * (ay - py) - (cy - py) * (ax - px)) / d,
            ((ax - px) * (by - py) - (ay - py) * (bx - px)) / d)


def _opposite_cut(T, x, v, base):
    """Shortest path from a face-interior x to the vertex v its face omits.

    A shortest path visits each face at most once and crosses no edge
    through its target vertex, so this one leaves the face of x across one
    of the face's three edges and runs straight to v in the neighbouring
    face: the segment from x to v's image C2 unfolded across that edge.
    A development is kept when it passes two tests.  The window: C2 lies
    in the cone from x through the edge's [TRIM, 1 - TRIM] window, the
    ends W1, W2 of its rim_table row, so the path misses the edge's end
    vertices.  The cap: its length is at most _cap(diam), the
    2/sqrt(3) * diam bound on every surface distance with rounding room.
    x lies strictly inside its face and C2 is developed strictly across the
    edge, so the segment meets the edge's line once, inside the window the
    cone admits: no crossing test is needed, and the shortest survivor,
    the first in (length, edge) order, is a shortest path to v, even where
    another ties with it, and the cut; its crossing parameter t along the
    edge is clamped to [0, 1].  tests/chain_reference.py finds it as its
    first path, to the bit.  base is x in its face's frame.  Returns (rho,
    above, crossings), above whether the cut's vector in that frame, x's
    chart, points on or above the frame's x axis, which sets its place in
    _star_cuts' order.
    """
    sx, sy = base
    cap = _cap(T.diam)
    cands = []
    for a, b, A2, B2, C2, W1, W2, e in T.rim_table[x.face]:
        # the window's cone test, on W1 - S2, W2 - S2 and C2 - S2 taken
        # once each
        ux, uy = W1[0] - sx, W1[1] - sy
        vx, vy = W2[0] - sx, W2[1] - sy
        if ux * vy - uy * vx < 0.0:
            ux, uy, vx, vy = vx, vy, ux, uy
        cx, cy = C2[0] - sx, C2[1] - sy
        if ux * cy - uy * cx < 0.0 or cx * vy - cy * vx < 0.0:
            continue
        # math.dist(C2, S2), to the bit
        d = math.hypot(cx, cy)
        if d <= cap:
            cands.append((d, e, a, b, A2, B2, cx, cy))
    if not cands:
        raise SearchExhausted("no straight development reaches the target")
    # the parameter t along the edge where the segment meets its line, on
    # C2 - S2 as above
    rho, _, a, b, A2, B2, cx, cy = min(cands)
    ex, ey = B2[0] - A2[0], B2[1] - A2[1]
    dx, dy = A2[0] - sx, A2[1] - sy
    t = (dx * cy - dy * cx) / (cx * ey - cy * ex)
    return rho, cy >= 0.0, (((a, b), min(max(t, 0.0), 1.0)),)


def star_unfold(T, x):
    """Star unfolding of the surface from x.

    The cut to a vertex sharing a face with x is the straight segment in
    that face, a shortest path since no surface path is shorter than the
    chord.  The one vertex that shares no face with x, the vertex its face
    omits when x is inside a face, is reached in closed form: the shortest
    path visits each face at most once (Sharir & Schorr), so it crosses
    exactly one edge of the face of x, and the first of those three
    one-crossing developments in (length, edge) order that crosses its
    edge inside the edge's [TRIM, 1 - TRIM] window, within the 2/sqrt(3) *
    diam cap on surface distance, is the cut (_opposite_cut).

    A vertex may have two shortest paths from x.  Either one is a valid
    cut, so the star is a valid star unfolding, and the tie shows in the
    cut locus as a vertex node of higher degree (cut_locus).  The star is
    laid out on x's cell (_unfold): it closes and has the surface's area
    by construction, and never overlaps itself (Aronov & O'Rourke 1992).
    Raises AmbiguousCut where a corner lies nearer a source image that
    does not flank it than its cut is long, as it does when a cut is not
    a shortest path: from a face point within about 1e-11 (in weight) of a
    vertex, the shortest path to the opposite vertex can cross an edge
    closer to that vertex than _opposite_cut's window admits.

    The layout is built once per T and source, and a repeat call returns
    the same object (_memo): a cut locus, the radius probes and the final
    Rad re-read share the star of a point.
    """
    x = x.canonical()
    return _memo(T, ("star", x.face, x.bary), lambda: _unfold(T, x))


def _unfold(T, x):
    """star_unfold(T, x) at canonical x: its cuts (_star_cuts) laid out on
    the source's cell (planar._layout), which raises the AmbiguousCut
    star_unfold names."""
    cuts, key = _star_cuts(T, x)
    images, corners, near, poly, turns, pieces = _layout(
        T.star_cells[key], x.bary, cuts)
    return tuple.__new__(StarUnfolding, (
        T, x, cuts, images, corners, near, poly, turns,
        _circumcenters(images, T.diam), pieces))


def _star_cuts(T, x):
    """The cuts of the star of x in chart order, and the key of x's cell.

    Returns (cuts, key), cuts a tuple of CutPath, one per vertex other
    than a vertex source, in the order of the cell (the key's in
    Tetrahedron.star_cells), which runs counterclockwise around x in its
    chart.  An edge or a vertex is its own cell, and each of its cuts runs
    straight in the lowest face that holds the source and the cut's
    vertex, its length read in that face's frame.  From a vertex, the cuts
    run to the entry vertices of the faces of its fan, in fan order; from
    a point of the edge (a, b), to b, to the vertex off the edge in its
    lowest face f, to a, and to the vertex off the edge in the other
    face g.  A face point's cell is its face f and the edge its cut to f
    crosses (_opposite_cut), and its chart is f's frame.  x is canonical.
    """
    supp = x.support()
    frames = T.face_frames
    hypot = math.hypot
    new = tuple.__new__  # CutPath(...) past namedtuple's __new__
    if len(supp) == 3:
        # in the frame of f = (c0, c1, c2), from its x axis, c2 lies above
        # the axis and c0 and c1 below it, so the straight cuts run (c2,
        # c0, c1) counterclockwise; the cut to f runs between the two
        # corners of the edge it crosses, after the corner off that edge,
        # and, across (c1, c2), first where its frame vector points on or
        # above the axis, where it leaves the axis counterclockwise
        f = x.face
        px, py = T.frame2(f, x.bary)
        cuts = []
        for i in (2, 0, 1):
            qx, qy = frames[f][i]
            cuts.append(new(CutPath, (FACES[f][i], hypot(qx - px, qy - py),
                                      ())))
        rho, above, crossings = _opposite_cut(T, x, f, (px, py))
        a, b = edge = crossings[0][0]
        k = FACES[f].index(6 - f - a - b)
        cuts.insert(k if k or above else 3, new(CutPath, (f, rho, crossings)))
        return tuple(cuts), (f,) + edge
    if len(supp) == 1:
        fan = _VERTEX_FANS[supp[0]]
        cuts = []
        for (g, jv, _, jx), (f, iv, ie, _) in zip(fan[-1:] + fan[:-1], fan):
            # f's entry vertex is g's exit; read in the lower of the two
            face = frames[f]
            (px, py), (qx, qy) = ((face[iv], face[ie]) if f < g
                                  else (frames[g][jv], frames[g][jx]))
            cuts.append(new(CutPath, (FACES[f][ie], hypot(qx - px, qy - py),
                                      ())))
        return tuple(cuts), supp
    # the edge (a, b): x lies on f, its lowest face, whose vertex off the
    # edge is g; on g it keeps the weights of a and b
    f, g, ia, ib, ig, ja, jb, jf = _EDGE_CHARTS[supp]
    a, b = supp
    bary = x.bary
    nb = [0.0, 0.0, 0.0]
    nb[ja], nb[jb] = bary[ia], bary[ib]
    (px, py), (sx, sy) = T.frame2(f, bary), T.frame2(g, nb)
    (ax, ay), (bx, by), (gx, gy) = (frames[f][ia], frames[f][ib],
                                    frames[f][ig])
    fx, fy = frames[g][jf]
    return ((new(CutPath, (b, hypot(bx - px, by - py), ())),
             new(CutPath, (g, hypot(gx - px, gy - py), ())),
             new(CutPath, (a, hypot(ax - px, ay - py), ())),
             new(CutPath, (f, hypot(fx - sx, fy - sy), ()))), supp)


# ---------------------------------------------------------------------------
# shortest paths read off the star

def _crossing(star):
    """((e1, e2), t): the edge that the opposite cut of a face-interior
    source crosses, and the crossing's parameter from e1 (_opposite_cut)."""
    for cut in star.cuts:
        if cut.crossings:
            return cut.crossings[0]


def _slack(star, piece, b):
    """How far the weights b on a piece's face lie inside its clip
    (Tetrahedron.star_cells), >= 0 where the clip holds them.  The clip's
    triangle weighs b as r = b_z / y_z on its apex, y the apex's weights
    on the face, and as the rest, b - r * y, on the edge opposite z: it
    holds b where none of these is negative, that is, where z's ratio
    b_z / y_z is the least (the ratio test), and, where the cut splits the
    piece, where the rest l passes the side test s * (l_i * t - l_j * (1 -
    t)) >= 0.  The slack is the least of them."""
    face, _, z, apex, side = piece
    y = apex or star.tetra.bary_on_face(star.source, face)
    r = b[z] / y[z]
    rest = [b[0] - r * y[0], b[1] - r * y[1], b[2] - r * y[2]]
    rest[z] = r
    least = min(rest)
    if side:
        i, j, s = side
        t = _crossing(star)[1]
        least = min(least, s * (rest[i] * t - rest[j] * (1.0 - t)))
    return least


def _star_position(star, q):
    """The plane point where canonical q, no vertex, develops in the star.

    The star is the union of its pieces, rigid copies of faces, each
    clipped to the part of its face that it lays out
    (Tetrahedron.star_cells), so q's position is its weights' sum of the
    star points of the copy of its face whose clip holds them (_slack): the
    first such copy, or, where none does, as rounding leaves a point on a
    side, the one they miss least, as StarUnfolding.to_surface chooses.  A
    point on a cut lies in two clips, and either gives it a position that
    develops its one shortest path.
    """
    f, qb = q.face, q.bary
    best = least = None
    for piece in star.pieces:
        if piece[0] == f:
            s = _slack(star, piece, qb)
            if s >= 0.0:
                break
            if least is None or s > least:
                best, least = piece, s
    else:
        piece = best
    (ax, ay), (bx, by), (cx, cy) = piece[1]
    return (qb[0] * ax + qb[1] * bx + qb[2] * cx,
            qb[0] * ay + qb[1] * by + qb[2] * cy)


def _edge_pieces(star):
    """Developed images of the tetrahedron edges in the star, a tuple of
    (edge, p, q, t0, t1): the segment pq develops the sorted edge (u, w)
    from parameter t0 to t1, from u.  The pieces' sides run along the
    edges, so an edge develops from corner to corner, except the edge
    (e1, e2) a face source's opposite cut crosses, in two segments, each
    from a corner to the crossing's copy on its side, t along the edge of
    its copy of the crossed face, the first two of the star's pieces past
    the petals (Tetrahedron.star_cells).  An edge that holds the source
    runs along cuts and has no image.  Built once per
    star and kept in the slot of its tetrahedron, keyed by its source
    (_memo), as star_unfold keeps the star itself: every path read off
    the star crosses them, and the SVG draws them.
    """
    x = star.source

    def build():
        supp = x.support()
        n = len(supp)
        corners = [None] * 4
        for cut, w in zip(star.cuts, star.corners):
            corners[cut.vertex] = w
        crossed = _crossing(star)[0] if n == 3 else None
        pieces = []
        for edge in EDGES:
            # a vertex source lies on three edges and an edge source on
            # its own; a face source on none
            if n < 3 and (edge == supp if n == 2 else supp[0] in edge):
                continue
            u, w = edge
            if edge == crossed:
                t = _crossing(star)[1]
                # the crossed face's copies, on the sides of e1 and of e2
                (_, p, _, _, (i, j, _)), (_, q, _, _, _) = star.pieces[4:6]
                pieces += [(edge, corners[u], _lerp2(p[i], p[j], t), 0.0, t),
                           (edge, _lerp2(q[i], q[j], t), corners[w], t, 1.0)]
            else:
                pieces.append((edge, corners[u], corners[w], 0.0, 1.0))
        return tuple(pieces)

    return _memo(star.tetra, ("edges", x.face, x.bary), build)


def _path_crossings(star, k, y2, qsupp):
    """The edge crossings, as GeodesicPath.crossings lists them, of the
    path that develops as the segment from source image k to y2, where a
    point of support qsupp develops: its proper crossings with the edge
    images (_edge_pieces), in order, each parameter interpolated along its
    image.  An edge holding the target, where the segment ends, is
    skipped; one holding the source has no image.  A path that runs along
    a face source's opposite cut, to a target on that cut past its edge
    crossing, develops along the star's side through the crossing's copy,
    which ends an edge piece: a segment that meets its piece's line within
    1e-9 of the piece's length from such an end crosses the edge there, at
    the cut's own parameter (_crossing).  The orientation tests are
    geometry._orient's, written out: the segment's own differences are
    taken once, as _orient takes them for each piece."""
    kx, ky = star.images[k]
    yx, yy = y2
    dx, dy = yx - kx, yy - ky
    # a face point's support holds no edge; an edge point's holds its own,
    # and a vertex's every edge through it
    n = len(qsupp)
    hits = []
    for edge, p, q, t0, t1 in _edge_pieces(star):
        if n < 3 and (edge == qsupp if n == 2 else qsupp[0] in edge):
            continue
        px, py = p
        qx, qy = q
        # _orient(K, y2, p) and _orient(K, y2, q)
        a = dx * (py - ky) - dy * (px - kx)
        b = dx * (qy - ky) - dy * (qx - kx)
        if a * b < 0.0:
            t = t0 + (t1 - t0) * a / (a - b)
        elif t1 < 1.0 and abs(b) <= 1e-9 * abs(a - b):
            t = t1  # through the copy at q
        elif t0 > 0.0 and abs(a) <= 1e-9 * abs(a - b):
            t = t0  # through the copy at p
        else:
            continue
        # _orient(p, q, K) and _orient(p, q, y2)
        ex, ey = qx - px, qy - py
        c = ex * (ky - py) - ey * (kx - px)
        e = ex * (yy - py) - ey * (yx - px)
        if c * e < 0.0:
            hits.append((c / (c - e), edge, t))
    hits.sort()
    return tuple([(edge, t) for _, edge, t in hits])


def _develops_path(star, k, y2):
    """Whether the segment from source image k to y2 lies in the star
    polygon, and so develops a path: it properly crosses no side, so it
    lies inside the polygon or outside it as a whole, and its midpoint is
    inside.  The polygon is thin where a cone angle is small, and such a
    segment can run outside it between two points of its boundary."""
    K = star.images[k]
    poly = star.poly
    if not _point_in_star(((K[0] + y2[0]) * 0.5, (K[1] + y2[1]) * 0.5),
                          poly, 0.0):
        return False
    a = poly[-1]
    for b in poly:
        if (_orient(K, y2, a) * _orient(K, y2, b) < 0.0
                and _orient(a, b, K) * _orient(a, b, y2) < 0.0):
            return False
        a = b
    return True


def _shortest_paths(T, p, q):
    """The shortest paths from canonical p to canonical q, read off the
    star unfolding of p: a tuple of (length, crossings), one per path
    within (1 + DEDUP_TOL) of the star's first path, plus 1e-15 * diam,
    that one first (_star_paths).

    Vertex to vertex is the edge between them, in closed form: every path
    is at least the chord, and the chord is the edge.  Where the star of p
    fails its checks, as it can next to a vertex, the paths are read off
    the star of q and reversed.  The paths are read once per T and pair
    (_memo): geodesic_distance keeps those within 1e-12 of the first,
    all_geodesic_segments and the Diam multiplicity read them all.
    """
    psupp, qsupp = p.support(), q.support()
    if len(psupp) == 1 and len(qsupp) == 1:
        return ((0.0 if psupp == qsupp else T.elen[(psupp[0], qsupp[0])],
                 ()),)
    if p == q:
        return ((0.0, ()),)

    def read():
        try:
            star = star_unfold(T, p)
        except (AmbiguousCut, SearchExhausted):
            return tuple([(d, crossings[::-1]) for d, crossings
                          in _star_paths(star_unfold(T, q), p)])
        return _star_paths(star, q)

    return _memo(T, ("paths", p.face, p.bary, q.face, q.bary), read)


def _star_paths(star, q):
    """_shortest_paths from the star's source to canonical q, another
    point.

    Every surface point develops in the star, and its distance from the
    source is the distance from its position to the nearest source image
    (Agarwal, Aronov, O'Rourke & Schevon 1997), along a segment in the
    star: the first path.  Each other image within the bound starts a path
    too if its segment to the position lies in the star (_develops_path);
    the paths follow the first by length, then by image.  A vertex
    develops at its corner, where the two images flanking the corner
    develop one path, its cut, whose length and crossings the star keeps:
    the first path, followed by the others in image order.  Each path's
    crossings are its segment's with the star's edge images
    (_path_crossings), which the star builds once.
    """
    images = star.images
    m = len(images)
    qsupp = q.support()
    if len(qsupp) == 1:
        j = next(k for k, cut in enumerate(star.cuts) if cut.vertex == qsupp[0])
        P = star.corners[j]
        flank = (j + 1) % m
        dists = [(star.cuts[j].length, j)] + [
            (math.dist(P, images[k]), k) for k in range(m)
            if k != j and k != flank]
    else:
        j = None
        P = _star_position(star, q)
        dists = sorted([(math.dist(P, a), k) for k, a in enumerate(images)])
    first = dists[0]
    limit = first[0] * (1.0 + DEDUP_TOL) + 1e-15 * star.tetra.diam
    return tuple([(d, star.cuts[j].crossings if k == j
                   else _path_crossings(star, k, P, qsupp))
                  for d, k in dists
                  if (d, k) == first
                  or d <= limit and _develops_path(star, k, P)])


# ---------------------------------------------------------------------------
# cut locus

@dataclass(frozen=True)
class CutNode:
    """Cut-locus node: a vertex node at a vertex image or a junction.

    A vertex node (is_leaf) is a leaf of the tree unless its vertex has
    tied shortest paths from the source; it has one arc fewer than its
    images.  surface is the node's surface point: a vertex node's vertex,
    or the point that develops at the junction, read off the star's pieces
    (StarUnfolding.to_surface on star, from its outer pieces on, which
    hold the junctions: all 71 junction reads of compute_report on
    instances 0-59 of seed 42 lie in one and in no petal).
    It is mapped on first read and kept, so a locus maps only the
    nodes that someone reads; a junction outside the star raises
    SearchExhausted at that read, and again at every later one.

    A junction's distance is the mean of its images' distances, taken at
    the mean of its circumcenters when it groups two triples or more.  On
    near-tied shapes such a node can sit above the geodesic distance to
    its surface point by more than rounding, and by more than its
    spread: 5.6e-11 * diam was seen on the regular shape with one vertex
    moved by 3.1e-10, from the midpoint of edge (0, 1).
    """

    point: Vec2
    distance: float
    images: tuple
    vertex: Optional[int]
    spread: float
    star: StarUnfolding = field(repr=False, compare=False)

    @property
    def is_leaf(self):
        return self.vertex is not None

    @_first_read
    def surface(self):
        if self.vertex is not None:
            return vertex_point(self.vertex)
        return self.star.to_surface(len(self.star.images), self.point)


@dataclass(frozen=True)
class CutArc:
    """Straight piece of the cut locus on the bisector of two source images."""

    images: tuple
    nodes: tuple
    p0: Vec2
    p1: Vec2

    @property
    def length(self):
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])

    def point_at(self, t):
        return (self.p0[0] + t * (self.p1[0] - self.p0[0]),
                self.p0[1] + t * (self.p1[1] - self.p0[1]))


# CutNode(...), CutArc(...) and CutLocus(...) without the frozen __init__,
# which sets each field through object.__setattr__: a locus builds about
# eleven nodes and arcs.  The instances are the same frozen dataclasses,
# fields, equality and repr.

def _cut_node(point, distance, images, vertex, spread, star):
    node = object.__new__(CutNode)
    d = node.__dict__
    d["point"] = point
    d["distance"] = distance
    d["images"] = images
    d["vertex"] = vertex
    d["spread"] = spread
    d["star"] = star
    return node


def _cut_arc(images, nodes, p0, p1):
    arc = object.__new__(CutArc)
    d = arc.__dict__
    d["images"] = images
    d["nodes"] = nodes
    d["p0"] = p0
    d["p1"] = p1
    return arc


@dataclass(frozen=True)
class CutLocus:
    """The set of points with two or more shortest paths to the source.

    A tree whose vertex nodes are the tetrahedron vertices (other than a
    vertex source); arcs are straight bisector segments of the star
    unfolding's source images.  A vertex node is a leaf unless the vertex
    has tied shortest paths from the source.
    """

    star: StarUnfolding
    nodes: tuple
    arcs: tuple

    def radius(self):
        """Largest distance from the source to the surface (attained on nodes)."""
        return max(n.distance for n in self.nodes)

    def leaves(self):
        return tuple(i for i, n in enumerate(self.nodes) if n.is_leaf)

    def junctions(self):
        return tuple(i for i, n in enumerate(self.nodes) if not n.is_leaf)


def _cut_locus(star, nodes, arcs):
    locus = object.__new__(CutLocus)
    d = locus.__dict__
    d["star"] = star
    d["nodes"] = nodes
    d["arcs"] = arcs
    return locus


def _voronoi_locus(T, x):
    """Cut locus at x, built as cut_locus describes, or AmbiguousCut.

    A star has three source images (a vertex source) or four.  Its vertex
    nodes are its corners; its junctions are the star's junction
    candidates inside the polygon, grouped within snap
    (_group_junctions).  A lone candidate's node reads the image
    distances the candidate carries; a group of two triples or more, or a
    junction merged into a corner, takes its distances at its point.  The
    arcs and tree checks are read off the plan memo (_LOCUS_PLANS), keyed
    by the pairs the nodes own.
    """
    star = star_unfold(T, x)
    images, corners, poly = star.images, star.corners, star.poly
    m = len(images)
    snap = DEDUP_TOL * T.diam
    dist = math.dist
    flanks = _FLANKS[m]
    # corner k lies between images k and k + 1 (mod m), its flank pair fl
    nodes = [_cut_node(w, cut.length, fl, cut.vertex,
                       abs(dist(w, images[fl[0]]) - dist(w, images[fl[1]])),
                       star)
             for w, cut, fl in zip(corners, star.cuts, flanks)]

    # the junctions are the probe's candidates inside the polygon, but the
    # domination slack, DEDUP_TOL * diam, admits ill-conditioned
    # circumcenters of thin shapes that sit well off the true node;
    # GEOM_TOL * diam keeps only the genuine ones
    gtol = GEOM_TOL * T.diam
    juncs = [node for node in star.junctions
             if node[0] >= node[2][node[3][0]] - gtol
             and _point_in_star(node[1], poly, snap)]
    built = []
    vowns = None  # the vertex nodes' pairs, once a tie merges one
    for first, members in _group_junctions(juncs, snap):
        n = len(members)
        if n == 1:
            # the mean of one point: sum() starts at 0, so it reads 0.0 + c
            pt = (0.0 + first[0], 0.0 + first[1])
        else:
            pt = (sum([c[1][0] for c in members]) / n,
                  sum([c[1][1] for c in members]) / n)
        # the nearest corner, the first of equals
        low = math.inf
        for w in corners:
            e = dist(pt, w)
            if e < low:
                low, near = e, w
        if low <= snap:
            # a vertex with tied shortest paths: the junction is its
            # corner, a vertex node whose arcs run between the tied
            # images around it; the flank pair's ring gap is the cut,
            # outside the polygon
            pt = near
            kc = corners.index(near)
        elif _star_sides_within(pt, poly, snap):
            raise AmbiguousCut("cut-locus junction on the polygon "
                               "boundary")
        if n == 1 and low > snap:
            # its distances to the images, and val the least of them, as
            # the candidate was kept
            val, _, d, tri = members[0]
            top = val + snap
        else:
            d = [dist(pt, a) for a in images]
            top = min(d) + snap
        img = tuple([k for k in range(m) if d[k] <= top])
        dsel = [e for e in d if e <= top]
        if low <= snap:
            own = _ring_pairs(images, img, pt)
            if flanks[kc] not in own:
                raise AmbiguousCut("tied images at a vertex image do not "
                                   "flank its cut")
            own.remove(flanks[kc])
            nodes[kc] = replace(nodes[kc], images=img,
                                spread=max(dsel) - min(dsel))
            vowns = vowns or [(fl,) for fl in flanks]
            vowns[kc] = tuple(own)
        else:
            # a fourth image within snap of a single triple need not have
            # an arc here, so only the triple's own bisectors count
            own = (_TRIPLE_PAIRS[tri] if n == 1
                   else tuple(_ring_pairs(images, img, pt)))
            built.append((pt, _cut_node(pt, sum(dsel) / len(dsel), img,
                                        None, max(dsel) - min(dsel),
                                        star), own))
    # deterministic node order: vertex nodes by corner index, then
    # junctions by position
    built.sort(key=itemgetter(0))
    nodes += [b[1] for b in built]
    points = corners + tuple([b[0] for b in built])
    plan = _LOCUS_PLANS[(tuple(vowns) if vowns else m,)
                        + tuple([b[2] for b in built])]
    if plan.__class__ is str:
        raise AmbiguousCut(plan)
    arcs = []
    for pair, na, nb in plan:
        # p0 comes first along rot90(a_j - a_i)
        (ax, ay), (bx, by) = images[pair[0]], images[pair[1]]
        pa, pb = points[na], points[nb]
        if ((pb[0] - pa[0]) * (ay - by) + (pb[1] - pa[1]) * (bx - ax)) < 0.0:
            na, nb, pa, pb = nb, na, pb, pa
        arcs.append(_cut_arc(pair, (na, nb), pa, pb))
    return _cut_locus(star, tuple(nodes), tuple(arcs))


def cut_locus(T, x):
    """Cut locus of the surface with respect to x.

    The locus is the Voronoi diagram of the star unfolding's source images,
    restricted to the star polygon (Agarwal et al. 1997).  Its vertex nodes
    are the vertex images; its junctions are the non-dominated
    circumcenters of three images, grouped within DEDUP_TOL * diam into
    nodes of higher degree; its arcs join the two nodes that share an image
    pair.  A junction within DEDUP_TOL * diam of a vertex image is a vertex
    with tied shortest paths, a degenerate Voronoi vertex at a polygon
    corner: it merges into that vertex node, which then has an arc to each
    pair of its tied images that are adjacent around it inside the
    polygon.  A junction on the polygon's boundary away from the corners,
    an image pair not shared by exactly two nodes, or a graph that is not
    such a tree raises AmbiguousCut.  Each node carries its surface point:
    a vertex node its vertex, a junction the point that develops there,
    mapped back through the star's pieces when it is first read
    (CutNode).

    A locus is an exact read: it is built once per T and source, and a
    repeat call returns the same object (_memo).
    """
    x = x.canonical()
    return _memo(T, ("cut", x.face, x.bary), lambda: _voronoi_locus(T, x))


# ---------------------------------------------------------------------------
# farthest-point sets and the intrinsic radius / diameter

@dataclass(frozen=True)
class AntipodeSet:
    """Farthest points from a source and the distance realizing them."""

    source: SurfacePoint
    value: float
    points: tuple
    distances: tuple
    continuum: bool
    locus: CutLocus


def _antipode_set(source, value, points, distances, continuum, locus):
    """AntipodeSet(...) without the frozen __init__, as _cut_node builds a
    node."""
    aps = object.__new__(AntipodeSet)
    d = aps.__dict__
    d["source"] = source
    d["value"] = value
    d["points"] = points
    d["distances"] = distances
    d["continuum"] = continuum
    d["locus"] = locus
    return aps


def intrinsic_radius_at(T, x, cfg=DEFAULT_CFG):
    """Farthest-point distance from x and the set of points attaining it.

    The distance to the source is convex along every cut-locus arc, so the
    maximum lives on nodes; an arc whose whole length stays within tolerance
    of the maximum is reported as a continuum and sampled densely.  The
    points are the nodes within opt_tol * diam of the maximum, in node
    order, then the continuum's samples, each dropped when it lies within
    opt_tol * diam in space of a point kept before it.
    """
    locus = cut_locus(T, x)
    scale = T.diam
    tolv = cfg.opt_tol * scale
    nodes = locus.nodes
    R = locus.radius()
    cand = [(n.distance, n.surface) for n in nodes if n.distance >= R - tolv]
    continuum = False
    if len(cand) == 1:
        # a lone candidate is the farthest set: no arc joins two
        # candidates, and there is nothing to sort or deduplicate
        points, dists = [cand[0][1]], [cand[0][0]]
    else:
        for arc in locus.arcs:
            d0 = nodes[arc.nodes[0]].distance
            d1 = nodes[arc.nodes[1]].distance
            # only arcs long enough to be resolved at the sampling spacing
            # count as a continuum; collapsed slivers near a degeneracy do
            # not
            if min(d0, d1) >= R - tolv and arc.length > 1e-3 * scale:
                site = locus.star.images[arc.images[0]]
                if _pt_seg2(site, arc.p0, arc.p1) >= R - tolv:
                    continuum = True
                    steps = max(2, int(math.ceil(arc.length
                                                 / (1e-3 * scale))))
                    for s in range(1, steps):
                        p = arc.point_at(s / steps)
                        cand.append((math.hypot(p[0] - site[0],
                                                p[1] - site[1]),
                                     locus.star.to_surface(arc.images[0],
                                                           p)))
        # in node order, then the continuum's samples: tied antipodes keep
        # the locus's order, which no last-bit difference between their
        # distances can change
        points, dists, seen = [], [], []
        for d, sp in cand:
            xyz = T.xyz(sp)
            if all([dist3(xyz, o) > tolv for o in seen]):
                points.append(sp)
                dists.append(d)
                seen.append(xyz)
    return _antipode_set(locus.star.source, R, tuple(points), tuple(dists),
                         continuum, locus)


@dataclass(frozen=True)
class DiameterResult:
    """Largest surface distance, its witness pair, and how it was found."""

    value: float
    pair: tuple
    multiplicity: int
    continuum: bool


def intrinsic_diameter(T, cfg=DEFAULT_CFG):
    """Intrinsic diameter of the surface: the largest F(v) over the vertices.

    One end of a diameter pair is a vertex.  Two points that are not
    vertices have at most four shortest paths between them: the star
    unfolding from a non-vertex x has four source images, and each shortest
    path from x to y is the segment from one of them to y.  A diameter
    pair where neither end is a vertex has at least five (O'Rourke &
    Schevon, "Computing the geodesic diameter of a 3-polytope", SoCG 1989).
    The first-order reason: in flat charts around x and y, each path length
    is |A_i x - y|, jointly convex in (x, y), with at most four active
    gradients in R^4.  If they are independent, some direction lengthens
    every path, so the pair is no maximum; if they are dependent, a kernel
    direction keeps every length at least Diam, so the pair is not
    isolated.  So Diam = max over v of F(v), each F(v) the exact node
    enumeration of one vertex cut locus.

    The witness pair is the lowest-index vertex whose value lies within
    GEOM_TOL * diam of the maximum, so that no last-bit difference between
    tied vertices picks it, and the first of its farthest points at the
    largest distance; multiplicity counts the shortest paths between them,
    and continuum is set when any vertex's farthest set is one.

    Only the loci that can change this result are built.  Each vertex is
    unfolded once, its probe value P(v) is read off that star
    (_read_farthest), and its locus, if needed, is built from the same
    star.  P(v) bounds the locus's value from above up to a slack of
    1e-7 * diam + 2 * snap, with snap = DEDUP_TOL * diam.  A leaf's
    distance is its cut length L, an edge, so L <= diam, and the leaf's
    candidate, near, is L or a foreign image's distance, which
    star_unfold's foreign-image check keeps at least L * (1 - 1e-7).  A
    junction's distance is the mean distance of its images, each within
    snap of the nearest, at the mean of its grouped
    circumcenters, each within snap of the group's first member, itself a
    candidate; distance is 1-Lipschitz, so the junction exceeds that
    candidate by at most 2 * snap.  The vertices are visited in falling
    order of P(v), and a locus is skipped only when P(v) plus the slack is
    below the largest value built so far less GEOM_TOL * diam: its value is
    then more than GEOM_TOL * diam below the maximum, so it can neither be
    nor tie the witness.  Nor may it hold
    a continuum, an arc longer than 1e-3 * diam whose two nodes lie within
    opt_tol * diam of the value.  A vertex locus has three vertex nodes,
    and two of them are joined only through a junction or through a vertex
    node with tied paths, which is a junction merged into its corner; so
    one end of such an arc is a junction candidate of the probe, kept or
    merged.  Each node has a candidate within the slack of its distance,
    and P(v) lies at most a few snaps above the locus's value (a candidate
    inside the polygon, up to its snap tolerance, is a surface distance),
    so a vertex whose probe lists a junction and a second candidate within
    opt_tol * diam + the slack of P(v) is always built.  A vertex whose
    star unfolding raises raises here too, as its cut locus would.
    """
    scale = T.diam
    tie = GEOM_TOL * scale
    slack = 1e-7 * scale + 2.0 * DEDUP_TOL * scale
    window = cfg.opt_tol * scale + slack
    readings = []
    for v in range(4):
        value, near = _read_farthest(star_unfold(T, vertex_point(v)), window)
        lone = len(near) < 2 or all(node[3] is None for node in near)
        readings.append((value, v, lone))
    # falling by value; reverse=True keeps ties in vertex order
    readings.sort(key=itemgetter(0), reverse=True)
    asets = {}
    top = -math.inf
    for value, v, lone in readings:
        if lone and value + slack < top - tie:
            continue  # below the maximum and its ties, and no continuum
        # the locus reads the star above, kept by star_unfold
        asets[v] = intrinsic_radius_at(T, vertex_point(v), cfg)
        top = max(top, asets[v].value)
    # the lowest vertex tied with the maximum
    best = next(asets[v] for v in sorted(asets) if asets[v].value >= top - tie)
    dists = best.distances
    p, q = best.source, best.points[dists.index(max(dists))]
    mult = len(_shortest_paths(T, p, q))
    return DiameterResult(value=top, pair=(p, q), multiplicity=mult,
                          continuum=any(a.continuum for a in asets.values()))


@dataclass(frozen=True)
class RadiusProbes:
    """The evaluations of one radius search, by stage (intrinsic_radius).

    certificate is the longest-edge midpoint's evaluation, counted as one
    whether or not its cut locus was built; seeds, explore and polish are
    the probes at the seeds, in the exploring descents and in the polish.
    """

    certificate: int
    seeds: int = 0
    explore: int = 0
    polish: int = 0


@dataclass(frozen=True)
class RadiusResult:
    """Intrinsic radius: the smallest farthest-point distance and its center."""

    value: float
    center: SurfacePoint
    antipodes: AntipodeSet
    probes: RadiusProbes

    @property
    def evaluations(self):
        """All evaluations of the search: the sum over its stages."""
        p = self.probes
        return p.certificate + p.seeds + p.explore + p.polish


def _read_farthest(star, window):
    """Farthest-point distance read off a star unfolding, tolerant of ties.

    The nearest-image distance of any chart point is an exact surface
    distance, so every candidate only ever underestimates the maximum; the
    maximum itself sits on a cut-locus node, and every node is either a
    vertex image or a circumcenter of three source images, so the candidate
    set covers it even when tied path lengths scramble the arc structure.
    The circumcenters are the star's junctions, enumerated when it was
    built, so a star read again at another window enumerates nothing.

    Returns (best, nodes): nodes lists the candidates within window of best
    as (value, point, k, triple), where the point is either the vertex image
    corners[k] (triple None) or the circumcenter of the source images
    triple = (i, j, l), whose third entry holds its distances to the images
    (planar._circumcenters).  best does not depend on the window.
    """
    near = star.near
    best = max(near)
    poly = star.poly
    last = poly[-1]
    inside = []
    # in falling order of value, the first junction inside the polygon
    # settles best, and the scan ends below the window; the even-odd test
    # is _point_in_star's, and the side test runs only where it misses
    for node in star.junctions:
        val = node[0]
        if val < best - window:
            break
        pt = node[1]
        px, py = pt
        odd = False
        x1, y1 = last
        u1 = y1 > py
        for x2, y2 in poly:
            u2 = y2 > py
            if u1 != u2 and px < x1 + (py - y1) / (y2 - y1) * (x2 - x1):
                odd = not odd
            x1, y1, u1 = x2, y2, u2
        if odd or _star_sides_within(pt, poly, DEDUP_TOL * star.tetra.diam):
            if val > best:
                best = val
            inside.append(node)
    floor = best - window
    corners = star.corners
    nodes = [(d, corners[k], k, None)
             for k, d in enumerate(near) if d >= floor]
    return best, nodes + [node for node in inside if node[0] >= floor]


def _seed_bounds(T, face, seeds):
    """(bound, face, bary, x) for each row (u, v, w, x) of seeds, x a point
    of `face` at weights (u, v, w) = x.bary, bound a lower bound on the
    probe's F at x, with no unfolding.

    F is at least the distance to every vertex.  The straight segment to a
    corner of the face is a shortest path, and a shortest path to the
    vertex the face omits runs straight through one neighbouring face
    (_opposite_cut), so the nearest of its three unfolded images is no
    farther than it.  For an edge point this covers the vertex across the
    edge too.  star_unfold only accepts a vertex image at least
    (1 - 1e-7) * rho from every source image that does not flank it, and
    reads rho from those that do, so the bound is shrunk by a relative
    1e-6, which also absorbs the rounding between its distances and the
    probe's.  The face's frame corners and its rim row's three apex
    images are read once for all the rows.
    """
    (ax, ay), (bx, by), (cx, cy) = T.face_frames[face]
    (qx, qy), (rx, ry), (tx, ty) = [row[4] for row in T.rim_table[face]]
    hypot = math.hypot
    rows = []
    for u, v, w, x in seeds:
        # T.frame2(face, x.bary)
        sx = u * ax + v * bx + w * cx
        sy = u * ay + v * by + w * cy
        near = max(hypot(ax - sx, ay - sy), hypot(bx - sx, by - sy),
                   hypot(cx - sx, cy - sy))
        far = min(hypot(qx - sx, qy - sy), hypot(rx - sx, ry - sy),
                  hypot(tx - sx, ty - sy))
        rows.append((max(near, far) * (1.0 - 1e-6), face, x.bary, x))
    return rows


def _near_end(here, ends, near):
    """Whether dist3(here, end) <= near for a point end of ends, with
    dist3's expressions written out."""
    hx, hy, hz = here
    for ex, ey, ez in ends:
        ux, uy, uz = hx - ex, hy - ey, hz - ez
        if math.sqrt(ux * ux + uy * uy + uz * uz) <= near:
            return True
    return False


def _descend(T, x, value, star, probe, limit, ends, delta, curved):
    """Trust-region minimax descent of the farthest distance from x.

    Each step minimizes a model of F over the box |d|_inf <= min(delta,
    r / sqrt(2)) in the star chart of the current point, r its shortest
    cut's length: the chart is flat inside the disc of radius r, which
    reaches the nearest vertex, so nothing clips the box.  The step's end
    is the star point images[k] + R_k d, from the image k whose wedge
    holds d, R_k its chart map (StarUnfolding): d lies on or
    counterclockwise of cut k - 1's chart vector and strictly clockwise of
    cut k's, by the signs of their cross products with d (image 0 where no
    wedge holds d).  It is mapped back to the surface through the star's
    pieces (StarUnfolding.to_surface), across whatever edges it crosses;
    the descent probes it and moves there when the probe is lower.  The model
    is the max over the nodes of their pieces (minimax._node_models),
    solved by minimax._step in one of two ways.
    The first-order step, on the pieces' affine parts, is cheap, and
    steers the descent while its steps gain what they predict.  Where two
    nodes stay active (a valley of F) the linear model overshoots along the
    valley and delta is halved about every other probe; the curved step, on
    the quadratic pieces, takes a Newton step that lands on the valley
    floor.  So a descent turns curved after its first step that gains less
    than 1/4 of the predicted decrease, on the models it already holds,
    whose junction pieces then take the Hessians that a first-order step
    never reads (minimax._with_hessians), and stays curved to its end even
    where delta doubles again; with curved set it is curved from its first
    step (the polish, which starts near a minimum and usually ends after
    one probe).  delta starts at the given
    value, doubles when a step to the box boundary gains more than 3/4 of
    the predicted decrease (the model's), becomes half the step taken when
    a step gains less than 1/4 of it, and is quartered when the step's end
    lies outside the star (SearchExhausted) or the probe raises
    AmbiguousCut.
    The descent stops when the predicted decrease is at most
    1e-13 * diam, delta is at most _STOP * diam, after `limit` steps (at
    most one probe each), or within 1e-3 * diam in space of a point in
    `ends` (the 3D points where earlier descents ended; no surface path is
    shorter than the 3D distance), whose minimum it would only find again.
    Only nodes within 3 * delta of the value can overtake it within the
    box, and a probe lists those within 6 * delta, which covers a doubled
    delta.  star is the start point's star, whose candidates are listed
    again at the first window, off the junctions it keeps.  x is a seed,
    taken in the order of its bound from _seed_bounds, or, for the polish,
    the exploring stage's winner.
    probe(x, window) returns (value, nodes, star).  Returns
    (value, x, star) at the end point.

    The models of a point are built at its first step, after the `ends`
    check, and only for the nodes within 3 * delta of the value then: until
    the descent moves, the value stays and delta only shrinks (it doubles
    only on a move), so no other node can become active.  The `ends` check
    maps the point to 3D only when there are ends (the first descent and
    the polish have none).  Of a step's work outside the probe, most is
    the step solve (_step, whose curved step solves the active sets of
    each choice of pieces), the models and the map back (to_surface,
    which reads the step's end off image k's petal, a copy the star keeps,
    when the step ends in it).
    """
    scale = T.diam
    near = 1e-3 * scale
    nodes = None  # the start point's are read at the first step's window
    models = None
    for _ in range(limit):
        floor = value - 3.0 * delta
        if models is None:
            if ends and _near_end(T.xyz(x), ends, near):
                break
            if nodes is None:
                nodes = _read_farthest(star, 6.0 * delta)[1]
            reach = min([cut[1] for cut in star.cuts]) / math.sqrt(2.0)
            # the chart vector of each cut, which bounds two images' wedges
            dirs = [star.transform_to_source(j, w)
                    for j, w in enumerate(star.corners)]
            models = _node_models(star, nodes, floor, curved)
        active = [pcs for top, pcs in models if top >= floor]
        h = reach if reach < delta else delta
        low, d = _step(active, [(-h, -h), (h, -h), (h, h), (-h, h)], curved)
        pred = value - low
        if pred <= 1e-13 * scale:
            break
        dx, dy = d
        step = abs(dx) if abs(dx) >= abs(dy) else abs(dy)
        # the step's end in the star: images[k] + R_k d, from the image
        # whose wedge, from cut k - 1's vector on and short of cut k's,
        # holds d, or from image 0 where none does
        k = 0
        ux, uy = dirs[-1]
        for j, (vx, vy) in enumerate(dirs):
            if ux * dy - uy * dx >= 0.0 and dx * vy - dy * vx > 0.0:
                k = j
                break
            ux, uy = vx, vy
        (ax, ay), (c, s) = star.images[k], star.turns[k]
        try:
            y = star.to_surface(k, (ax + c * dx + s * dy,
                                    ay + s * dx - c * dy))
            val_y, nodes_y, star_y = probe(y, 6.0 * delta)
        except (SearchExhausted, AmbiguousCut):
            delta *= 0.25
        else:
            gain = (value - val_y) / pred
            if val_y < value:
                x, value, star = y, val_y, star_y
                nodes, models = nodes_y, None
            if gain < 0.25:
                delta = 0.5 * step
                if not curved and models is not None:
                    # the point stays: its models take their Hessians
                    models = _with_hessians(star, models)
                curved = True  # the rest of the descent is curved
            elif gain > 0.75 and step >= 0.99 * delta:
                delta *= 2.0
        if delta <= _STOP * scale:
            break
    return value, x, star


# the two stages of a radius search (Hald & Madsen's split of a minimax
# solver): descents from the seeds share _EXPLORE_PROBES probes, step on
# the first-order model until a step gains less than 1/4 of its prediction
# and on the curved one after; only the winner is then polished on the
# curved model, from delta = 6e-4 * diam, with at most _POLISH_PROBES
# more.  Every descent stops once delta is _STOP * diam; a curved step
# lands on its basin's floor, so an exploring descent mostly ends there,
# on a step that predicts no decrease, or at its budget, with delta still
# above 1e-3 * diam.  The budget was set on a sweep of 2,003 shapes
# (tests/radius_sweep.py): at 20 probes no Rad rose by more than 1e-9 *
# diam but one, by 2.8e-9, which the switch rule moves at any budget;
# without the curved step's box-side candidates, a 20-probe budget raised
# one by 1.07e-3 * diam
_EXPLORE_PROBES = 20
_POLISH_PROBES = 30
_STOP = 1e-11


# the 42 seeds of the radius search by face, each as (u, v, w, x), x a
# canonical surface point and (u, v, w) its weights: a 3x3 grid folded
# across its diagonal into each face, then the edge midpoints on the face
_FACE_SEEDS = tuple(tuple([x.bary + (x,) for x in [
    face_point(f, (u, v, 1.0 - u - v)) for u, v in [
        (a, b) if a + b <= 1.0 else (1.0 - b, 1.0 - a)
        for a in (0.15, 0.45, 0.75) for b in (0.15, 0.45, 0.75)]]
    + [edge_point(a, b, 0.5) for a, b in EDGES] if x.face == f])
    for f in range(4))


def _seed_order(T):
    """_seed_bounds' rows for every seed of the search, sorted."""
    return sorted([row for f, seeds in enumerate(_FACE_SEEDS)
                   for row in _seed_bounds(T, f, seeds)])


def intrinsic_radius(T, cfg=DEFAULT_CFG):
    """Intrinsic radius: minimize the farthest-point distance over the surface.

    Every center c satisfies d(c,a) + d(c,b) >= |ab| = diam for the endpoints
    a, b of a longest edge, so Rad >= diam/2.  The midpoint of that edge is
    tried first: when its farthest-point distance is within GEOM_TOL * diam
    of diam/2 it is returned as the center after one evaluation, certified
    to that tolerance.  Its cut locus is built only when its bound from
    _seed_bounds is at most diam/2 + GEOM_TOL * diam; above it F(mid),
    which is at least the bound, fails the certificate for certain.
    Otherwise the search seeds a grid on every face plus the six edge
    midpoints (_FACE_SEEDS) and runs a trust-region minimax descent
    (_descend) in the star chart of its current point, whose steps end at
    star points that the star's pieces map back to the surface, across
    edges where they cross them.  The
    farthest distance F is a max of distance functions, and every probe
    yields each candidate's exact gradient pieces, so each step solves the
    piecewise-linear model of F over the trust region exactly (Madsen's
    minimax method).  The search has two stages.  Exploring, it descends
    from each seed in turn, in order of (F, face, bary), until the descents
    have spent _EXPLORE_PROBES (20) probes; each descent steps on that
    first-order model until a step gains less than a quarter of the
    decrease it predicted, and on the nodes' quadratic models after (each
    piece's exact Hessian, minimax._node_models), whose Newton step lands
    on the floor of a valley of F where the first-order steps would crawl
    along it, and whose step reaches the trust region's side where a lone
    vertex piece slopes down to it (both solved by minimax._step), until a
    step predicts no decrease, which leaves the budget to further seeds.  The
    seeds are probed lazily, best first: each has a lower bound on F from
    its vertex distances (_seed_bounds, taken face by face and sorted by
    _seed_order), and a seed is probed only once
    that bound is at most the lowest F probed but not yet descended from,
    so the descents start exactly where a full scan of the seeds would
    start them.  Polishing, it descends once more from the best point found, on
    the quadratic models from its first step, from a trust region of
    6e-4 * diam, with at most _POLISH_PROBES probes (Hald & Madsen's
    second stage).  Every descent also stops once its trust region is
    _STOP * diam across.  The winner of the exploring stage has mostly
    ended at its minimum on the same model, so the polish rarely makes a
    probe.  A search therefore makes between
    1 + 1 + _EXPLORE_PROBES and 1 + 42 + _EXPLORE_PROBES + _POLISH_PROBES
    probes, fewer only if the usable seeds run out.  A
    descent result replaces the incumbent only when it is lower by more
    than GEOM_TOL * diam, so probe rounding cannot pull the center off a
    tied optimum, and the winner is re-evaluated on its cut locus
    (intrinsic_radius_at), built from the star of its probe: every point
    the search probes is canonical as built.  probes counts the
    evaluations by stage (RadiusProbes): the certificate as one, whether
    or not its cut locus was built, then the seed probes, the exploring
    descents' probes and the polish's; the final re-evaluation is not
    counted.  evaluations is their sum.
    """
    scale = T.diam
    margin = GEOM_TOL * scale
    mid = edge_point(*EDGES[T.longest_edge], 0.5)
    # F(mid) is at least its seed bound, so above diam/2 + margin the
    # certificate fails for certain and its cut locus is not built
    if _seed_bounds(T, mid.face, [mid.bary + (mid,)])[0][0] \
            <= 0.5 * scale + margin:
        try:
            aset = intrinsic_radius_at(T, mid, cfg)
        except AmbiguousCut:
            aset = None  # no certificate; the search decides
        if aset is not None and aset.value <= 0.5 * scale + margin:
            return RadiusResult(value=aset.value, center=aset.source,
                                antipodes=aset, probes=RadiusProbes(1))
    count = [1]

    def probe(x, window):
        count[0] += 1
        star = star_unfold(T, x)
        return (*_read_farthest(star, window), star)

    def value(x):
        try:
            val, _, star = probe(x, 0.0)
        except AmbiguousCut:
            return math.inf, None  # unusable probe point; the scan moves on
        return val, star

    # lazy best-first scan: a seed is probed only once its lower bound could
    # place it before the best probed seed, so the heap pops the seeds in
    # exactly the order of a full scan sorted by (F, face, bary); spent
    # counts descent probes only, as seed probes are off the explore budget.
    # No two seeds share a face and weights, so no two entries compare
    # their points
    order = _seed_order(T)
    heap = []
    nxt = spent = 0
    best = None
    ends = []
    while spent < _EXPLORE_PROBES:
        while nxt < len(order) and (not heap or order[nxt][0] <= heap[0][0]):
            _, f, bary, x = order[nxt]
            val, star = value(x)
            # nxt is unique, so no two entries ever compare their points
            heapq.heappush(heap, (val, f, bary, nxt, x, star))
            nxt += 1
        if not heap or not math.isfinite(heap[0][0]):
            break
        val, _, _, _, x, star = heapq.heappop(heap)
        if best is None:
            best = (val, star, x)
        start = count[0]
        val, x, star = _descend(T, x, val, star, probe,
                                _EXPLORE_PROBES - spent, ends,
                                0.05 * scale, False)
        spent += count[0] - start
        ends.append(T.xyz(x))
        if val < best[0] - margin:
            best = (val, star, x)
    if best is None:
        raise AmbiguousCut("no probe point produced a usable evaluation")

    val, star, x = best
    explored = count[0]
    polished = _descend(T, x, val, star, probe, _POLISH_PROBES, [],
                        6e-4 * scale, True)
    if polished[0] < val - margin:
        x = polished[1]

    aset = intrinsic_radius_at(T, x, cfg)
    return RadiusResult(value=aset.value, center=aset.source, antipodes=aset,
                        probes=RadiusProbes(1, nxt, spent,
                                            count[0] - explored))

