"""The radius search's straight passes against their loops, to the bit.

The layout of a star reads its corners, petals, turns and pieces off its
cell, kept once per cut order (planar._layout), the seeds come from one
table (intrinsic._FACE_SEEDS) and their bounds are taken face by face
(intrinsic._seed_bounds, sorted by intrinsic._seed_order), the farthest
read runs
its point test inline (intrinsic._read_farthest), the surface point at a
star point reads its first piece, image k's petal, written out
(StarUnfolding.to_surface), and a descent checks the ends of earlier
descents with dist3 written out (intrinsic._near_end).  Each is held here to the loop it replaces,
in tests/probe_loops.py and tests/path_loops.py, on random, thin and
isosceles shapes, on the reads the radius search records and on points
where the passes branch: both cut orders of every face cell, junctions
that only the side test admits, points on a piece's side, junction
back-maps and points outside the star.
"""

import math
import random
import sys

from tetrametric import (EDGES, GeneratorSpec, Tetrahedron, TetraError,
                         edge_point, face_point, generate, instance_stream,
                         intrinsic_radius, make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         star_unfold, vertex_point)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric.errors import AmbiguousCut, SearchExhausted
from tetrametric.geometry import dist3
from tetrametric.intrinsic import (_FACE_SEEDS, _near_end, _piece_weights,
                                   _read_farthest, _seed_bounds, _seed_order,
                                   _slack, _star_cuts)
from tetrametric.planar import _layout

import path_loops
import probe_loops
from test_star_layout import _bits


def _shapes():
    """Random, thin and isosceles shapes, and the regular one, whose ties
    put junctions on the star's sides."""
    spec = GeneratorSpec(kind="random")
    shapes = [normalize(generate(spec, seed=instance_stream(50, i)))
              for i in range(8)]
    shapes += [make_eps_thick(eps, seed=k)
               for k, eps in enumerate((0.003, 0.01, 0.03))]
    shapes += [make_normal_eps_thick(0.02), normalize(make_regular(1.0)),
               make_isosceles(5.0, 6.0, 7.0),
               normalize(make_isosceles(0.9, 0.95, 1.0))]
    return shapes


def _recorded(monkeypatch, shapes):
    """The farthest reads and the back-maps of intrinsic_radius on each
    shape: (star, window) and (star, k, y2, from a descent step)."""
    reads, maps = [], []
    read, to_surface = intrinsic_mod._read_farthest, \
        intrinsic_mod.StarUnfolding.to_surface

    def record_read(star, window):
        reads.append((star, window))
        return read(star, window)

    def record_map(star, k, y2):
        step = sys._getframe(1).f_code.co_name == "_descend"
        maps.append((star, k, y2, step))
        return to_surface(star, k, y2)

    monkeypatch.setattr(intrinsic_mod, "_read_farthest", record_read)
    monkeypatch.setattr(intrinsic_mod.StarUnfolding, "to_surface", record_map)
    for T in shapes:
        try:
            intrinsic_radius(T)
        except TetraError:
            pass
    monkeypatch.undo()
    return reads, maps


def test_face_seeds_are_the_folded_grid_and_the_edge_midpoints():
    # the seed table, face by face, is the loop's seeds grouped by face:
    # the same faces, weights and canonical points, to the bit, each row's
    # weights its point's
    want = probe_loops.radius_seeds()
    got = [row for rows in _FACE_SEEDS for row in rows]
    assert len(got) == 42
    assert all(row[3].face == f for f, rows in enumerate(_FACE_SEEDS)
               for row in rows)
    want.sort(key=lambda x: x.face)  # stable: each face's seeds in order
    assert [(x.face, _bits(x.bary)) for *_, x in got] == [
        (x.face, _bits(x.bary)) for x in want]
    assert all(_bits(row[:3]) == _bits(row[3].bary) for row in got)
    assert [row[3] for row in got] == want


def test_seed_order_takes_each_bound_as_seed_bound_does():
    # the one pass's bounds, faces, weights and points, in the sorted
    # order of the seeds' bounds taken one by one; and the longest-edge
    # midpoint's row, which gates the radius certificate, on the shapes
    # of test_radius_certificate_skip_is_safe
    for T in _shapes():
        got, want = _seed_order(T), probe_loops.seed_order(T)
        assert len(got) == 42
        assert _bits(tuple(got)) == _bits(tuple(want))
        assert [a[3] for a in got] == [b[3] for b in want]
    rng = random.Random(12)
    shapes = [normalize(generate(GeneratorSpec(kind="random"),
                                 seed=instance_stream(42, i)))
              for i in range(40)]
    shapes += [make_eps_thick(rng.uniform(0.003, 0.03), seed=s)
               for s in range(40)]
    for T in shapes:
        mid = edge_point(*EDGES[T.longest_edge], 0.5)
        (row,) = _seed_bounds(T, mid.face, [mid.bary + (mid,)])
        assert _bits(row[:3]) == _bits(
            (probe_loops.seed_bound(T, mid.face, mid.bary), mid.face,
             mid.bary))
        assert row[3] is mid


def test_layout_matches_the_loop_in_every_cut_order():
    # every face cell, each laid out from a source next to the edge its
    # opposite cut crosses, with its cuts in each of their four rotations
    # (the two orders _star_cuts gives a face cell among them), and every
    # vertex and edge cell in its one order: the same floats and the same
    # corner, turn and piece objects as the loop, and one kept order per
    # first cut; with its last cut made too long, the same AmbiguousCut
    count = raised = 0
    for shape in _shapes():
        T = Tetrahedron(shape.vertices)  # cells of its own
        seen = set()
        sources = [vertex_point(v) for v in range(4)]
        sources += [edge_point(a, b, t) for a, b in EDGES
                    for t in (0.3, 0.5)]
        for f in range(4):
            for i in range(3):
                for t in (0.2, 0.5, 0.8):
                    w = [1e-3, 1e-3, 1e-3]
                    w[i], w[(i + 1) % 3] = t * 0.999, (1.0 - t) * 0.999
                    sources.append(face_point(f, tuple(w)))
        for x in sources:
            cuts, key = _star_cuts(T, x)
            cell = T.star_cells[key]
            m = len(cuts)
            # a last cut far longer than its corner's distance to a foreign
            # image raises in both
            trials = [cuts[r:] + cuts[:r]
                      for r in range(m if len(key) == 3 else 1)]
            trials.append(cuts[:-1] + (cuts[-1]._replace(
                length=10.0 * T.diam),))
            for order in trials:
                try:
                    want = probe_loops.layout(cell, x.bary, order)
                except AmbiguousCut as exc:
                    try:
                        _layout(cell, x.bary, order)
                    except AmbiguousCut as got:
                        assert str(got) == str(exc)
                        raised += 1
                        continue
                    raise AssertionError("the loop raised, the pass did not")
                got = _layout(cell, x.bary, order)
                assert _bits(got[:4]) == _bits(want[:4])
                for a, b in zip(got[1] + got[4] + got[5],
                                want[1] + want[4] + want[5]):
                    assert a is b
                assert len(got[5]) == len(want[5])
                assert cell[3][order[0].vertex][0] is got[1]
                count += 1
            seen.add(key)
        # a face cell keeps its four rotations, each once, and a vertex or
        # edge cell its one order
        assert sum(len(key) == 3 for key in seen) == 12
        for key in seen:
            orders = T.star_cells[key][3]
            assert len(orders) == (4 if len(key) == 3 else 1)
    assert count > 2000 and raised > 0


def test_layout_keeps_each_cut_order_once():
    # a face cell's two orders from _star_cuts, the opposite cut first and
    # last, both met in the sweep, each kept on the cell at its first
    # layout and read again after; a vertex or edge cell keeps one
    orders = {}
    rng = random.Random(50)
    for shape in _shapes()[:6]:
        T = Tetrahedron(shape.vertices)
        for f in range(4):
            for _ in range(60):
                w = [rng.uniform(0.01, 1.0) for _ in range(3)]
                x = face_point(f, tuple(c / sum(w) for c in w))
                try:
                    star = star_unfold(T, x)
                except TetraError:
                    continue
                cuts, key = _star_cuts(T, x)
                kept = T.star_cells[key][3][cuts[0].vertex]
                assert kept[0] == star.corners and kept[2] is star.turns
                assert kept[3] is star.pieces
                orders.setdefault(key[0] == cuts[0].vertex, set()).add(
                    (id(T), key))
        for v in range(4):
            star_unfold(T, vertex_point(v))
            assert len(T.star_cells[(v,)][3]) == 1
    assert len(orders[True]) > 10 and len(orders[False]) > 40


def test_read_farthest_matches_the_point_loop(monkeypatch):
    # the search's own reads, and every star of theirs read again at
    # windows 0 and 6 * delta for the exploring and the polishing deltas:
    # the same best, the same nodes in the same order, the junctions that
    # only the side test admits among them
    shapes = _shapes()
    reads, _ = _recorded(monkeypatch, shapes)
    stars = {id(star): star for star, _ in reads}
    # tied sources on the regular shape: junctions on the star's sides
    regular = shapes[12]
    for x in ([face_point(f, (1 / 3, 1 / 3, 1 / 3)) for f in range(4)]
              + [edge_point(a, b, 0.5) for a, b in EDGES]):
        star = star_unfold(regular, x)
        stars[id(star)] = star
    cases = list(reads)
    for star in stars.values():
        scale = star.tetra.diam
        cases += [(star, 0.0), (star, 6.0 * 0.05 * scale),
                  (star, 6.0 * 6e-4 * scale)]
    sides = nodes = 0
    for star, window in cases:
        best, got = _read_farthest(star, window)
        want_best, want, admitted = probe_loops.read_farthest(star, window)
        assert best.hex() == want_best.hex()
        assert _bits(got) == _bits(want)
        assert all(a[1] is b[1] for a, b in zip(got, want))
        sides += admitted
        nodes += len(got)
    assert len(reads) > 300 and nodes > 3000 and sides > 0


def _first_holds(star, k, y2):
    piece = star.pieces[k]
    return _slack(star, piece, _piece_weights(piece[1], y2)) >= 0.0


def _surface_bits(star, k, y2):
    """to_surface(k, y2) of the package and of the loop, face and weights
    to the bit, or the message each raises."""
    out = []
    for read in (star.to_surface,
                 lambda k, y2: path_loops.to_surface(star, k, y2)):
        try:
            y = read(k, y2)
            out.append((y.face, _bits(y.bary)))
        except SearchExhausted as exc:
            out.append(str(exc))
    return out


def test_to_surface_matches_the_piece_loop(monkeypatch):
    # the descent's recorded step ends, where most reads end in the first
    # piece, the junction back-maps (k the number of images), points along
    # every side of every piece, from every image, and points pushed out
    # of the star past its tolerance: the same face and weights, or the
    # same SearchExhausted, as the loop over the pieces
    shapes = _shapes()
    _, maps = _recorded(monkeypatch, shapes)
    counts = dict(steps=0, first=0, junctions=0, sides=0, outside=0)
    for star, k, y2, step in maps:
        got, want = _surface_bits(star, k, y2)
        assert got == want
        counts["steps"] += step
        counts["first"] += step and _first_holds(star, k, y2)
        counts["junctions"] += k == len(star.images)
    rng = random.Random(50)
    for T in shapes[::2]:
        for x in ([face_point(f, (0.2, 0.3, 0.5)) for f in range(4)]
                  + [edge_point(*EDGES[rng.randrange(6)], 0.4),
                     vertex_point(rng.randrange(4))]):
            try:
                star = star_unfold(T, x)
            except TetraError:
                continue
            m = len(star.images)
            for piece in star.pieces:
                pts = piece[1]
                for i in range(3):
                    a, b = pts[i], pts[(i + 1) % 3]
                    for t in (0.0, 0.25, 0.5, 1.0 / 3.0):
                        y2 = (a[0] + t * (b[0] - a[0]),
                              a[1] + t * (b[1] - a[1]))
                        for k in range(m + 1):
                            got, want = _surface_bits(star, k, y2)
                            assert got == want
                            counts["sides"] += 1
            # each polygon point pushed away from the images' centroid
            cx = sum(a[0] for a in star.images) / m
            cy = sum(a[1] for a in star.images) / m
            for p in star.poly:
                dx, dy = p[0] - cx, p[1] - cy
                n = math.hypot(dx, dy)
                for out in (1e-5 * T.diam, 3.0 * T.diam):
                    y2 = (p[0] + out * dx / n, p[1] + out * dy / n)
                    for k in range(m + 1):
                        got, want = _surface_bits(star, k, y2)
                        assert got == want
                        counts["outside"] += isinstance(got, str)
    assert counts["steps"] > 150 and counts["first"] > 0.8 * counts["steps"]
    assert counts["junctions"] > 10 and counts["sides"] > 5000
    assert counts["outside"] > 500


def test_near_end_matches_dist3():
    # ends around a point, some within 1e-3 of it and some beyond, and a
    # reach equal to the last end's distance: the same answer as dist3
    rng = random.Random(50)
    hits = 0
    for _ in range(3000):
        here = tuple([rng.uniform(-1.0, 1.0) for _ in range(3)])
        ends = [tuple([h + rng.uniform(-1.5e-3, 1.5e-3) for h in here])
                for _ in range(rng.randrange(1, 6))]
        for near in (1e-3, dist3(here, ends[-1])):
            want = any(dist3(here, end) <= near for end in ends)
            assert _near_end(here, ends, near) == want
            hits += want
    assert 3000 < hits < 6000
