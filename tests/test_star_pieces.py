"""The star's pieces: one table that maps both ways.

A star unfolding is the union of a few rigid copies of faces, its pieces,
fixed within a cell of the surface (Tetrahedron.star_cells): a petal around
each source image and the faces that do not hold the source, 4 pieces from
a vertex source, 6 from an edge point and 8 from a face point.  Each piece
is clipped to the part of its face that it lays out.  _star_position
places a surface point in the star through the copy whose clip holds it,
StarUnfolding.to_surface maps a star point back through the same clips,
and _path_crossings reads a path's edge crossings off the star's edge
images.  These tests hold the cells to the surface (each copy is its face,
laid out rigidly, and the clips tile the star, side for side), the two
maps to each other, on the cuts too, where two clips meet, and both
back-maps to the geodesic ray walk of tests/ray_reference.py, which
develops the surface face by face and shares no code with the pieces, and
to the face-chain search of tests/chain_reference.py.
"""

import math
import random
import sys

import pytest

from tetrametric import (EDGES, FACES, GeneratorSpec, TetraError,
                         ToleranceConfig, all_geodesic_segments, cut_locus,
                         edge_point, face_point, generate, geodesic_distance,
                         instance_stream, intrinsic_radius, make_eps_thick,
                         make_isosceles, make_normal_eps_thick, make_regular,
                         normalize, star_unfold, vertex_point)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric.errors import SearchExhausted
from tetrametric.geometry import _CELL_PLANS, _orient
from tetrametric.intrinsic import (_develops_path, _path_crossings,
                                   _star_position)

import ray_reference
from chain_reference import reference_distance, reference_segments


def _random(seed, i):
    return normalize(generate(GeneratorSpec(kind="random"),
                              seed=instance_stream(seed, i)))


def _shapes():
    shapes = [_random(42, i) for i in range(12)]
    shapes += [make_eps_thick(0.003 + 0.003 * k, seed=k) for k in range(6)]
    shapes += [make_normal_eps_thick(0.01), normalize(make_regular(1.0)),
               make_isosceles(5.0, 6.0, 7.0)]
    return shapes


def _sources(rng):
    out = [vertex_point(v) for v in range(4)]
    out += [edge_point(a, b, rng.uniform(0.05, 0.95)) for a, b in EDGES]
    for f in range(4):
        w = [rng.uniform(0.05, 1.0) for _ in range(3)]
        out.append(face_point(f, tuple(c / sum(w) for c in w)))
    return out


def _stars(seed):
    rng = random.Random(seed)
    for T in _shapes():
        for x in _sources(rng):
            try:
                yield T, star_unfold(T, x)
            except TetraError:
                continue


def _xyz(T, face, weights):
    return tuple(sum(w * T.vertices[v][i]
                     for w, v in zip(weights, FACES[face])) for i in range(3))


def _area(points):
    (ax, ay), (bx, by), (cx, cy) = points
    return 0.5 * abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def _clip(star, piece):
    """The corners of a piece's clip, as their weights on its face: the
    apex, then the ends of the face's edge opposite vertex z, of which a
    split piece keeps the one on its side and puts the crossing in place
    of the other."""
    face, _, z, apex, side = piece
    unit = [tuple(float(i == j) for j in range(3)) for i in range(3)]
    corners = [apex or star.tetra.bary_on_face(star.source, face),
               unit[(z + 1) % 3], unit[(z + 2) % 3]]
    if side:
        i, j, s = side
        t = intrinsic_mod._crossing(star)[1]
        c = tuple(1.0 - t if n == i else t if n == j else 0.0
                  for n in range(3))
        corners[corners.index(unit[j if s > 0.0 else i])] = c
    return corners


def _at(points, weights):
    return tuple(sum(w * p[i] for w, p in zip(weights, points))
                 for i in range(2))


def _cells(T):
    """Every cell of T: the 4 vertex cells, the 6 edge cells and the 12
    face cells."""
    return [(key, T.star_cells[key]) for key in _CELL_PLANS]


def test_cells_are_rigid_copies_of_faces():
    # 4, 6 or 8 copies by the cell's kind, each with the sides of its face
    # and turning the way the cell's chart says: a cell is the face
    # frames' mirror image where its chart turns counterclockwise in them
    count = 0
    for T in _shapes():
        cells = _cells(T)
        assert len(cells) == 22
        for key, (corners, petals, outer) in cells:
            pieces = [petal[3] for petal in petals.values()] + list(outer)
            assert len(pieces) == {1: 4, 2: 6, 3: 8}[len(key)]
            ccw = _CELL_PLANS[key][-1]
            for face, points, _, _, _ in pieces:
                fv = FACES[face]
                for i in range(3):
                    side = math.dist(points[i - 1], points[i])
                    edge = math.dist(T.vertices[fv[i - 1]],
                                     T.vertices[fv[i]])
                    assert abs(side - edge) <= 1e-12 * T.diam
                assert (_orient(*points) < 0.0) == ccw
                count += 1
    assert count == 21 * (4 * 4 + 6 * 6 + 12 * 8)


def test_pieces_tile_the_star():
    # 4, 6 or 8 pieces by the source's support, piece k around image k,
    # whose clips' areas add up to the surface's and whose sides are as
    # long as the 3D segments between their corners' surface points: each
    # clip is its part of the face, laid out rigidly
    count = 0
    for T, star in _stars(1):
        pieces = star.pieces
        m = len(star.images)
        assert len(pieces) == {1: 4, 2: 6, 3: 8}[len(star.source.support())]
        clips = [(piece[0], piece[1], _clip(star, piece)) for piece in pieces]
        for k in range(m):
            apex = _at(clips[k][1], clips[k][2][0])
            assert math.dist(apex, star.images[k]) <= 1e-12 * T.diam
        total = sum(_area([_at(points, w) for w in weights])
                    for _, points, weights in clips)
        assert total == pytest.approx(T.area, rel=1e-12)
        for face, points, weights in clips:
            for i in range(3):
                side = math.dist(_at(points, weights[i - 1]),
                                 _at(points, weights[i]))
                chord = math.dist(_xyz(T, face, weights[i - 1]),
                                  _xyz(T, face, weights[i]))
                assert abs(side - chord) <= 1e-12 * T.diam
        count += 1
    assert count >= 280


def _on_cuts(star):
    """(k, q, flanks) for points q on cut k, to the corner between images
    k and k + 1: a quarter, half and three quarters of the way along the
    segment from the source in a face holding the source and the cut's
    vertex, with the two pieces on either side of the cut there, the
    petals of images k and k + 1; and, for a face source's opposite cut,
    along the segment from its crossing c to its vertex in the crossed
    face, with that face's two pieces, on the sides of those images."""
    T, x = star.tetra, star.source
    m = len(star.images)
    for k, cut in enumerate(star.cuts):
        w = cut.vertex
        flanks = (star.pieces[k], star.pieces[(k + 1) % m])
        if cut.crossings:
            (e1, e2), t = cut.crossings[0]
            g = 6 - w - e1 - e2
            c = {e1: 1.0 - t, e2: t}
            crossed = star.pieces[m:m + 2]
            ends = [(x.face, x.bary,
                     tuple(c.get(u, 0.0) for u in FACES[x.face]), flanks),
                    (g, tuple(c.get(u, 0.0) for u in FACES[g]),
                     tuple(float(u == w) for u in FACES[g]),
                     crossed if flanks[0][4][2] > 0.0 else crossed[::-1])]
        else:
            g = min(f for f in range(4) if f != w and f not in x.support())
            ends = [(g, T.bary_on_face(x, g),
                     tuple(float(u == w) for u in FACES[g]), flanks)]
        for g, p0, p1, pair in ends:
            for s in (0.25, 0.5, 0.75):
                yield k, face_point(g, tuple((1.0 - s) * a + s * b
                                             for a, b in zip(p0, p1))), pair


def test_points_on_cuts_map_both_ways():
    # a point on a cut develops twice, once in each of the two pieces on
    # either side of the cut, on the boundary of both clips (_slack), as
    # far from each flanking image; the star places it at one of them, and
    # each maps back to the point through either image
    count = 0
    for T, star in _stars(5):
        m = len(star.images)
        for k, q, pair in _on_cuts(star):
            P = _star_position(star, q)
            sides = []
            for piece in pair:
                b = T.bary_on_face(q, piece[0])
                assert abs(intrinsic_mod._slack(star, piece, b)) <= 1e-12
                sides.append(_at(piece[1], b))
            assert min(math.dist(P, y2) for y2 in sides) <= 1e-12 * T.diam
            flanking = (k, (k + 1) % m)
            reach = [math.dist(y2, star.images[j])
                     for y2, j in zip(sides, flanking)]
            assert abs(reach[0] - reach[1]) <= 1e-12 * T.diam
            for y2 in sides:
                for j in flanking:
                    y = star.to_surface(j, y2)
                    assert math.dist(T.xyz(y), T.xyz(q)) <= 1e-12 * T.diam
            count += 1
    assert count >= 3500


def test_to_surface_inverts_the_star_position():
    # a surface point placed in the star (_star_position) maps back to
    # itself through any image, and its image maps to its position
    rng = random.Random(2)
    count = 0
    for T, star in _stars(2):
        for _ in range(4):
            w = [rng.uniform(0.02, 1.0) for _ in range(3)]
            q = face_point(rng.randrange(4), tuple(c / sum(w) for c in w))
            P = _star_position(star, q)
            for k in range(len(star.images)):
                y = star.to_surface(k, P)
                assert y.canonical() is y
                assert math.dist(T.xyz(y), T.xyz(q)) <= 1e-12 * T.diam
            assert math.dist(_star_position(star, y), P) <= 1e-12 * T.diam
            count += 1
    assert count >= 1100


def test_to_surface_agrees_with_the_ray_walk_at_junctions():
    # a junction read through source image k, where the segment from k
    # develops in the star, is the end of the geodesic ray from the
    # source at the segment's chart angle and length
    rng = random.Random(3)
    count = 0
    for T in _shapes():
        for x in _sources(rng):
            try:
                locus = cut_locus(T, x)
            except TetraError:
                continue
            star = locus.star
            for node in locus.nodes:
                k = node.images[0]
                if node.is_leaf or not _develops_path(star, k, node.point):
                    continue
                walked = ray_reference.to_surface(star, k, node.point)
                assert math.dist(T.xyz(node.surface),
                                 T.xyz(walked)) <= 1e-12 * T.diam
                count += 1
    assert count >= 450


def test_a_grouped_junction_maps_to_its_star_position():
    # a node that groups four images, one 6.4e-8 * diam farther than the
    # other three: the segment from that image, images[0], leaves the star,
    # and the ray walked along it ends 1.8e-4 * diam away from the
    # junction's surface point, but the pieces place the node where it
    # develops, with three shortest paths of its nearest images' length
    T = make_eps_thick(0.029, seed=26)
    x = edge_point(0, 3, 0.24853977322040888)
    locus = cut_locus(T, x)
    star = locus.star
    node, = [n for n in locus.nodes if len(n.images) == 4]
    k = node.images[0]
    assert not _develops_path(star, k, node.point)
    y = node.surface
    assert math.dist(_star_position(star, y), node.point) <= 1e-12 * T.diam
    near = min(math.dist(node.point, star.images[j]) for j in node.images)
    segs = reference_segments(T, x, y)
    assert len(segs) == 3
    assert all(abs(s.length - near) <= 1e-12 * T.diam for s in segs)


def test_descent_steps_agree_with_the_ray_walk(monkeypatch):
    # every step of the radius search lands in the star, at the end of the
    # geodesic ray the step describes
    steps, lost = [], []
    to_surface = intrinsic_mod.StarUnfolding.to_surface

    def record(star, k, y2):
        step = sys._getframe(1).f_code.co_name == "_descend"
        try:
            y = to_surface(star, k, y2)
        except SearchExhausted:
            lost.append((star, k, y2))
            raise
        if step:
            steps.append((star, k, y2, y))
        return y

    monkeypatch.setattr(intrinsic_mod.StarUnfolding, "to_surface", record)
    for i in range(10):
        intrinsic_radius(_random(42, i))
    for k in range(4):
        intrinsic_radius(make_eps_thick(0.01 + 0.005 * k, seed=k))
    assert len(steps) >= 150 and lost == []
    for star, k, y2, y in steps:
        T = star.tetra
        walked = ray_reference.to_surface(star, k, y2)
        assert math.dist(T.xyz(y), T.xyz(walked)) <= 1e-13 * T.diam


def test_a_point_outside_the_star_develops_nothing():
    # past DEDUP_TOL * diam outside the polygon no surface point develops;
    # within it a point maps to its nearest piece
    T = _random(42, 0)
    star = star_unfold(T, face_point(1, (0.3, 0.3, 0.4)))
    far = max(math.hypot(*p) for p in star.poly)
    with pytest.raises(SearchExhausted, match="outside the star"):
        star.to_surface(0, (3.0 * far, 0.0))
    # a corner, pushed out along the bisector of its two sides by a
    # hundredth of the tolerance, maps to its vertex
    k = 1
    w, a, b = star.corners[k], star.images[k], star.images[(k + 1) % 4]
    out = (2.0 * w[0] - 0.5 * (a[0] + b[0]), 2.0 * w[1] - 0.5 * (a[1] + b[1]))
    n = math.dist(out, w)
    eps = 1e-9 * T.diam
    y = star.to_surface(k, (w[0] + eps * (out[0] - w[0]) / n,
                            w[1] + eps * (out[1] - w[1]) / n))
    v = star.cuts[k].vertex
    assert math.dist(T.xyz(y), T.xyz(vertex_point(v))) <= 1e-8 * T.diam


def test_path_crossings_agree_with_the_ray_walk():
    # the crossings read off the edge images are the walked ray's, edge for
    # edge, on every path to points away from the vertices; the parameters
    # differ by up to 1.5e-11 on the thinnest shapes (eps-thick at 0.003),
    # where the walk's turns leave its own parameters up to 1.6e-11 from a
    # 50-digit development of the same faces, and the star's within 5.2e-12
    rng = random.Random(4)
    count = 0
    for T, star in _stars(4):
        for _ in range(3):
            w = [rng.uniform(0.05, 1.0) for _ in range(3)]
            q = face_point(rng.randrange(4), tuple(c / sum(w) for c in w))
            P = _star_position(star, q)
            for k in range(len(star.images)):
                if not _develops_path(star, k, P):
                    continue
                got = _path_crossings(star, k, P, q.support())
                want = ray_reference.path_crossings(star, k, P)
                assert [e for e, _ in got] == [e for e, _ in want]
                assert all(abs(s - t) <= 2e-11
                           for (_, s), (_, t) in zip(got, want))
                count += 1
    assert count >= 1000


def _edges(paths):
    return sorted(tuple(e for e, _ in path.crossings) for path in paths)


def test_thin_paths_below_the_floor_reach_their_vertex():
    # a vertex of cone angle 0.0013: the walk wound a ray aimed at it past
    # its 64-face budget and raised SearchExhausted; read off the star, its
    # three paths from this edge point are the chain search's, and so are
    # those of every edge point at 0.1, 0.5 and 0.9 to each vertex
    T = make_eps_thick(3e-4, 23, cfg=ToleranceConfig(quality_floor=1e-12))
    p, q = edge_point(0, 1, 0.1), vertex_point(1)
    segs = all_geodesic_segments(T, p, q)
    assert _edges(segs) == _edges(reference_segments(T, p, q))
    assert len(segs) == 3
    count = 0
    for a, b in EDGES:
        for t in (0.1, 0.5, 0.9):
            p = edge_point(a, b, t)
            for v in range(4):
                q = vertex_point(v)
                assert (_edges(all_geodesic_segments(T, p, q))
                        == _edges(reference_segments(T, p, q)))
                count += 1
    assert count == 72


def test_crossings_next_to_the_source_vertex():
    # an edge point 1e-11 from vertex 0 (instance 29 of stream 7): both
    # paths to the centroid of face 0 cross an edge at the vertex, at
    # about 3e-11 along it, and then edge (2, 3), as the chain search
    # finds them; the walk took ends within 1e-9 of an edge as on it, and
    # dropped the first crossing of each
    T = _random(7, 29)
    p, q = edge_point(0, 1, 1e-11), face_point(0, (1 / 3, 1 / 3, 1 / 3))
    got = sorted(path.crossings for path in all_geodesic_segments(T, p, q))
    want = sorted(path.crossings for path in reference_segments(T, p, q))
    assert [[e for e, _ in c] for c in got] == [[(0, 2), (2, 3)],
                                                [(0, 3), (2, 3)]]
    assert [[e for e, _ in c] for c in want] == [[e for e, _ in c]
                                                  for c in got]
    for a, b in zip(got, want):
        assert all(abs(s - t) <= 1e-12 for (_, s), (_, t) in zip(a, b))


def test_paths_between_points_next_to_vertices():
    # instances 0-29 of stream 7, normalized: from each edge's point 1e-9
    # from its lower end to the opposite edge's point 1e-9 from its lower
    # end (180 pairs), where both ends' stars failed the turtle walk's
    # checks and 174 distances raised, every distance is the chain
    # search's
    for i in range(30):
        T = _random(7, i)
        for a, b in EDGES:
            c, d = [w for w in range(4) if w not in (a, b)]
            p, q = edge_point(a, b, 1e-9), edge_point(c, d, 1e-9)
            assert (abs(geodesic_distance(T, p, q)[0]
                        - reference_distance(T, p, q)[0]) <= 1e-14 * T.diam)
