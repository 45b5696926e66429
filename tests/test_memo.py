"""The exact reads kept per tetrahedron: star unfoldings, cut loci, a
pair's shortest paths, and a star's outer pieces and edge images.

star_unfold and cut_locus keep what they build for the most recent
Tetrahedron (geometry._memo), and so does the read of a pair's shortest
paths off the star of its source, which geodesic_distance and
all_geodesic_segments share.  A star's outer pieces and edge images are
kept in the same slot, once per star; the cells the stars are laid out on
are kept on the Tetrahedron (Tetrahedron.star_cells).  A kept result must
be the one a fresh Tetrahedron would build, bit for bit, whatever was
asked before it.
"""

import gc
import random
import weakref
from collections import Counter

import pytest

from tetrametric import (EDGES, FACES, SurfacePoint, Tetrahedron,
                         ToleranceConfig, all_geodesic_segments, cut_locus,
                         edge_point, export_unfolding, face_point, generate,
                         GeneratorSpec, geodesic_distance, instance_stream,
                         intrinsic_radius_at, make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         star_unfold, vertex_point)
from tetrametric import geometry as geometry_mod
from tetrametric import intrinsic as intrinsic_mod
from tetrametric.errors import AmbiguousCut

from chain_reference import reference_distance

CFG5 = ToleranceConfig(opt_tol=1e-5)

CALLS = {
    "star": lambda T, x, y: star_unfold(T, x),
    "cut": lambda T, x, y: cut_locus(T, x),
    "radius_at": lambda T, x, y: intrinsic_radius_at(T, x),
    "radius_at5": lambda T, x, y: intrinsic_radius_at(T, x, CFG5),
    "d": lambda T, x, y: geodesic_distance(T, x, y),
    "segments": lambda T, x, y: all_geodesic_segments(T, x, y),
}


def _shapes():
    random_spec = GeneratorSpec(kind="random")
    shapes = [normalize(generate(random_spec, seed=instance_stream(42, i)))
              for i in range(3)]
    shapes += [make_eps_thick(0.01, instance_stream(1, 0)),
               make_normal_eps_thick(0.02)]
    shapes += [normalize(make_isosceles(5.0, 6.0, 7.0)),
               normalize(make_isosceles(0.9, 0.95, 1.0)),
               normalize(make_regular(1.0))]
    return shapes


def _near_vertex(f):
    """A point of face f 2e-9 (in weight) from a corner, where two sides
    of the star's polygon are about 1e-9 * diam long."""
    return face_point(f, tuple(1.0 - 2e-9 if w == f ^ 1 else 1e-9
                               for w in FACES[f]))


def _points(rng):
    """Two vertex, two edge and four face points, one a face centroid and
    one next to a vertex."""
    out = [vertex_point(rng.randrange(4)) for _ in range(2)]
    for _ in range(2):
        a, b = rng.sample(range(4), 2)
        out.append(edge_point(a, b, rng.uniform(0.05, 0.95)))
    for _ in range(2):
        w = [rng.random() + 0.05 for _ in range(3)]
        out.append(face_point(rng.randrange(4), [c / sum(w) for c in w]))
    out.append(face_point(rng.randrange(4), (1 / 3, 1 / 3, 1 / 3)))
    out.append(_near_vertex(rng.randrange(4)))
    return out


def _read(call, T, x, y):
    """repr of the result, or the class and message of what it raised."""
    try:
        return "ok", repr(CALLS[call](T, x, y))
    except Exception as exc:  # compared, never hidden
        return type(exc).__name__, str(exc)


def test_kept_results_equal_fresh_builds():
    # every call on a shared T, in two orders, against each call on a T of
    # its own
    rng = random.Random(5)
    orders = (list(CALLS), list(reversed(CALLS)))
    raised = compared = 0
    for T in _shapes():
        points = _points(rng)
        pairs = list(zip(points, points[1:] + points[:1]))
        for order in orders:
            shared = Tetrahedron(T.vertices)
            for x, y in pairs:
                for call in order:
                    got = _read(call, shared, x, y)
                    want = _read(call, Tetrahedron(T.vertices), x, y)
                    assert got == want, (call, x, y)
                    raised += got[0] != "ok"
                    compared += 1
    assert compared == 8 * 8 * 2 * len(CALLS)
    assert raised > 0  # near a vertex layouts fail; failures are compared too


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_repeat_calls_return_what_was_built(monkeypatch):
    # a distance and its paths read the source's star, and keep the
    # pair's paths it gives: they build no star once star_unfold has
    T = Tetrahedron(normalize(make_isosceles(0.9, 0.95, 1.0)).vertices)
    loci = _counting(monkeypatch, intrinsic_mod, "_voronoi_locus")
    stars = _counting(monkeypatch, intrinsic_mod, "_unfold")
    x = face_point(1, (0.2, 0.3, 0.5))
    y = edge_point(0, 2, 0.4)
    star = star_unfold(T, x)
    locus = cut_locus(T, x)
    aset = intrinsic_radius_at(T, x)
    d = geodesic_distance(T, x, y)
    segs = all_geodesic_segments(T, x, y)
    assert (len(stars), len(loci)) == (1, 1)
    assert star_unfold(T, x) is star is locus.star
    assert cut_locus(T, x) is locus is aset.locus
    assert intrinsic_radius_at(T, x) == aset
    assert geodesic_distance(T, x, y) == d
    assert all_geodesic_segments(T, x, y) == segs
    assert (len(stars), len(loci)) == (1, 1)
    # another cfg reads the same locus
    assert intrinsic_radius_at(T, x, CFG5).locus is locus
    assert (len(stars), len(loci)) == (1, 1)
    # a distance from another source builds that source's star
    geodesic_distance(T, y, x)
    assert len(stars) == 2


def test_a_failed_build_is_not_kept(monkeypatch):
    # 3e-12 (in weight) from vertex 2 of instance 17 of stream 42, the cut
    # to vertex 3 crosses edge (0, 1), where a shorter path passes next to
    # vertex 2 outside every edge's [TRIM, 1 - TRIM] window
    # (_opposite_cut), so an image lies nearer vertex 3's corner than the
    # cut is long: every call lays the star out again and raises again
    T = Tetrahedron(normalize(generate(GeneratorSpec(kind="random"),
                                       seed=instance_stream(42, 17))).vertices)
    stars = _counting(monkeypatch, intrinsic_mod, "_unfold")
    c = face_point(3, (3e-12, 1.0 - 6e-12, 3e-12))
    for k in (1, 2):
        with pytest.raises(AmbiguousCut):
            star_unfold(T, c)
        assert len(stars) == k
    # a build that raises once and then succeeds is kept from then on
    x = face_point(2, (0.2, 0.3, 0.5))
    unfold = intrinsic_mod._unfold

    def flaky(*args):
        stars.append(args)
        if len(stars) == 3:
            raise AmbiguousCut("star polygon failed to close")
        return unfold(*args)

    monkeypatch.setattr(intrinsic_mod, "_unfold", flaky)
    with pytest.raises(AmbiguousCut):
        star_unfold(T, x)
    star = star_unfold(T, x)
    assert star_unfold(T, x) is star


def _unsettled_point(rng):
    """A face point p that p.canonical() moves: its largest weight is not
    1 minus the sum of the other two."""
    for _ in range(10000):
        w = [rng.random() + 0.01 for _ in range(3)]
        s = sum(w)
        sp = SurfacePoint(rng.randrange(4), [c / s for c in w])
        if sp.canonical() != sp:
            return sp
    raise AssertionError("no such point found")


def test_star_unfold_keys_on_the_point_it_builds_from():
    # star_unfold builds from its input's canonical form, which is its own
    # canonical form: p, p.canonical() and p.canonical().canonical() share
    # one build, whose source is that form
    T = Tetrahedron(normalize(make_isosceles(0.9, 0.95, 1.0)).vertices)
    p = _unsettled_point(random.Random(3))
    once = p.canonical()
    twice = once.canonical()
    assert once != p and twice is once
    stars = [star_unfold(T, y) for y in (p, once, twice)]
    assert stars[0] is stars[1] is stars[2]
    assert stars[0].source == once
    assert all(star_unfold(T, y) is stars[0] for y in (p, once, twice))
    # two inputs with one canonical form share one build: an edge point
    # given on its higher face is its canonical point
    e = edge_point(0, 2, 0.3)
    high = SurfacePoint(3, (0.7, 0.3, 0.0))
    assert high != e and high.canonical() == e
    assert star_unfold(T, high) is star_unfold(T, e)
    # a fresh T evicts this one, so the rebuilds come last
    for y in (p, once, twice):
        assert repr(stars[0]) == repr(star_unfold(Tetrahedron(T.vertices), y))


def test_a_new_tetrahedron_evicts_the_old():
    V = normalize(make_isosceles(0.9, 0.95, 1.0)).vertices
    x = face_point(3, (0.3, 0.3, 0.4))
    T1 = Tetrahedron(V)
    star1 = star_unfold(T1, x)
    assert geometry_mod._MEMO[0] is T1
    T2 = Tetrahedron(V)
    star2 = star_unfold(T2, x)
    assert star2 is not star1 and repr(star2) == repr(star1)
    assert geometry_mod._MEMO[0] is T2
    # the slot holds one tetrahedron: T1's star is built anew
    again = star_unfold(T1, x)
    assert again is not star1 and repr(again) == repr(star1)
    # nothing cycles back to a tetrahedron, so once the slot lets go of
    # it, dropping the last reference frees it without the collector
    ref = weakref.ref(T1)
    star_unfold(T2, x)
    gc.disable()
    try:
        del T1, star1, again
        assert ref() is None
    finally:
        gc.enable()


def _counting_builds(monkeypatch):
    """Counters of the slot's reads and builds by key, through the _memo
    that intrinsic.py calls."""
    reads, builds = Counter(), Counter()
    memo = intrinsic_mod._memo

    def counted(T, key, build):
        reads[key] += 1

        def counted_build():
            builds[key] += 1
            return build()

        return memo(T, key, counted_build)

    monkeypatch.setattr(intrinsic_mod, "_memo", counted)
    return reads, builds


def test_a_pairs_paths_are_read_once(monkeypatch):
    # geodesic_distance and all_geodesic_segments on one pair share one
    # read of the star's paths, a tuple; the reverse pair reads its own,
    # and so does a new T
    V = normalize(make_isosceles(0.9, 0.95, 1.0)).vertices
    T = Tetrahedron(V)
    reads = _counting(monkeypatch, intrinsic_mod, "_star_paths")
    x = face_point(1, (0.2, 0.3, 0.5)).canonical()
    y = edge_point(0, 2, 0.4).canonical()
    d = geodesic_distance(T, x, y)
    segs = all_geodesic_segments(T, x, y)
    assert len(reads) == 1
    assert geodesic_distance(T, x, y) == d
    assert all_geodesic_segments(T, x, y) == segs
    kept = intrinsic_mod._shortest_paths(T, x, y)
    assert type(kept) is tuple
    assert intrinsic_mod._shortest_paths(T, x, y) is kept
    assert len(reads) == 1
    geodesic_distance(T, y, x)
    assert len(reads) == 2
    assert geodesic_distance(Tetrahedron(V), x, y) == d
    assert len(reads) == 3


def test_a_stars_copies_and_edge_images_are_built_once(monkeypatch):
    # every reader of a face source's star shares one build of its edge
    # images, a tuple, and one of its cell, whose developed edges its
    # crossing copies read: the star, both path functions, the cut locus,
    # the farthest set and both drawings; a new T builds them again
    V = normalize(make_isosceles(0.9, 0.95, 1.0)).vertices
    T = Tetrahedron(V)
    reads, builds = _counting_builds(monkeypatch)
    cells = _counting(monkeypatch, geometry_mod._StarCells, "_build")
    x = face_point(1, (0.2, 0.3, 0.5)).canonical()
    y = edge_point(0, 2, 0.4)
    star = star_unfold(T, x)
    geodesic_distance(T, x, y)
    all_geodesic_segments(T, x, y)
    cut_locus(T, x)
    intrinsic_radius_at(T, x)
    for mode in ("star", "source"):
        export_unfolding(T, x, mode)
    edges = ("edges", x.face, x.bary)
    assert builds[edges] == len(cells) == 1 and reads[edges] > 1
    assert type(intrinsic_mod._edge_pieces(star)) is tuple
    geodesic_distance(Tetrahedron(V), x, y)
    assert builds[edges] == len(cells) == 2


def test_tied_pairs_report_the_chain_references_path():
    # geodesic_distance keeps, of a pair's kept paths, those within 1e-12
    # of the star's first, and reports the least crossing signature; the
    # chain search, by the same rule, reports a path across the same
    # edges on tie-rich pairs of the regular and (5, 6, 7) shapes.  The
    # pairs include targets on a face source's opposite cut, past its
    # crossing, whose path runs through the crossing's copies
    ends = [vertex_point(v) for v in range(4)]
    ends += [edge_point(a, b, 0.5) for a, b in EDGES]
    ends += [face_point(f, (1 / 3, 1 / 3, 1 / 3)) for f in range(4)]
    tied = 0
    for T in (normalize(make_regular(1.0)), make_isosceles(5.0, 6.0, 7.0)):
        for p in ends:
            for q in ends:
                if p == q:
                    continue
                got = geodesic_distance(T, p, q)[1]
                want = reference_distance(T, p, q)[1]
                assert ([edge for edge, _ in got.crossings]
                        == [edge for edge, _ in want.crossings]), (p, q)
                tied += len(all_geodesic_segments(T, p, q)) > 1
    assert tied >= 40
