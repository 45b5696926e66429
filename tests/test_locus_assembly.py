"""The cut-locus builder against the m-image builder it replaces.

A star has three source images (a vertex source, a 6-gon) or four (a face
or edge source, an 8-gon).  intrinsic._voronoi_locus builds those two
shapes directly, in one pass over its junction candidates grouped as
planar._group_junctions groups them: it reads the candidates off the star
(StarUnfolding.junctions), with the image distances each carries, which a
lone junction reads; its point location and boundary test are one loop
each for both shapes (planar._point_in_star, _star_sides_within); a lone
junction owns its triple's three pairs; and the arcs and tree checks come
from one memo of plans (locus._LOCUS_PLANS), keyed by the pairs the nodes
own.  It must give the floats of the m-image builder
(_voronoi_locus_by_loop, kept here as the reference) to the bit, with its
arcs in the same order and orientation, and raise its AmbiguousCut with
the same message, and each plan it reads must be _locus_plan's on the
reference's pairs and degrees; these tests compare the two on random,
thin, tied and near-vertex sources and on synthetic 3- and 4-image stars
that are cocircular, tied at a corner or have a junction on a side.  The
bundles of surface-query traffic are pinned to the bit as well
(tests/bundle_digest.py).
"""

import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from tetrametric import (EDGES, GeneratorSpec, StarUnfolding, ToleranceConfig,
                         compute_report, cut_locus, edge_point, face_point,
                         generate, instance_stream, make_eps_thick,
                         make_isosceles, make_normal_eps_thick, make_regular,
                         normalize, validate_tetrahedron, vertex_point)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric import locus as locus_mod
from tetrametric.errors import AmbiguousCut
from tetrametric.geometry import DEDUP_TOL, GEOM_TOL
from tetrametric.intrinsic import CutLocus, CutPath, _cut_arc, _cut_node
from tetrametric.locus import _LocusPlans, _locus_plan
from tetrametric.planar import (_circumcenters, _group_junctions,
                                _point_in_star, _star_sides_within)

import bundle_digest
from polygon_loops import _point_in_polygon, _side_within

_FLOOR_12 = ToleranceConfig(quality_floor=1e-12)


# ---------------------------------------------------------------------------
# the reference: the m-image builder

def _ring_pairs(images, img, pt):
    """The image pairs adjacent around pt, for the images img within snap
    of it, as sorted index pairs in angular order."""
    ring = sorted(img, key=lambda k: math.atan2(images[k][1] - pt[1],
                                                 images[k][0] - pt[0]))
    return [tuple(sorted((ring[t - 1], ring[t]))) for t in range(len(ring))]


def _voronoi_locus_by_loop(T, x):
    """Cut locus at x for any number of source images, or AmbiguousCut:
    the generic point location, junction grouping, angular pair rings for
    every grouped junction, an ends dict of image pairs and a tree walk."""
    star, nodes, owns = _nodes_by_loop(T, x)
    arcs = _arcs_by_loop(star.images, nodes, owns)
    return CutLocus(star=star, nodes=tuple(nodes), arcs=tuple(arcs))


def _nodes_by_loop(T, x):
    """The reference's star, its nodes and the image pairs each node owns,
    or the AmbiguousCut it raises before its arcs."""
    star = intrinsic_mod.star_unfold(T, x)
    cands = _circumcenters(star.images, T.diam)
    images = star.images
    corners = star.corners
    m = len(images)
    poly = star.poly
    sides = list(zip(poly, poly[1:] + poly[:1]))
    snap = DEDUP_TOL * T.diam

    def dists(pt):
        return [math.hypot(pt[0] - a[0], pt[1] - a[1]) for a in images]

    def near(d):
        top = min(d) + snap
        return tuple(k for k in range(m) if d[k] <= top)

    def flank(k):
        # the sorted image pair flanking corner k
        return (k, k + 1) if k + 1 < m else (0, k)

    nodes, owns = [], []
    for k, w in enumerate(corners):
        fl = flank(k)
        d = dists(w)
        cut = star.cuts[k]
        nodes.append(_cut_node(w, cut.length, fl, cut.vertex,
                               abs(d[fl[0]] - d[fl[1]]), star))
        owns.append([fl])

    juncs = [node for node in cands
             if _point_in_polygon(node[1], poly, snap) and node[0] >= math.dist(
                 node[1], images[node[3][0]]) - GEOM_TOL * T.diam]
    built = []
    for _, members in _group_junctions(juncs, snap):
        n = len(members)
        pt = (sum(c[1][0] for c in members) / n,
              sum(c[1][1] for c in members) / n)
        dc = [math.dist(pt, c) for c in corners]
        kc = dc.index(min(dc))
        if dc[kc] <= snap:
            w = corners[kc]
            d = dists(w)
            img = near(d)
            own = _ring_pairs(images, img, w)
            fl = flank(kc)
            if fl not in own:
                raise AmbiguousCut("tied images at a vertex image do not "
                                   "flank its cut")
            own.remove(fl)
            dsel = [d[k] for k in img]
            nodes[kc] = replace(nodes[kc], images=img,
                                spread=max(dsel) - min(dsel))
            owns[kc] = own
            continue
        if any(_side_within(pt, a, b, snap) for a, b in sides):
            raise AmbiguousCut("cut-locus junction on the polygon boundary")
        d = dists(pt)
        img = near(d)
        if len(members) == 1:
            own = list(itertools.combinations(members[0][3], 2))
        else:
            own = _ring_pairs(images, img, pt)
        dsel = [d[k] for k in img]
        built.append((_cut_node(pt, sum(dsel) / len(dsel), img, None,
                                max(dsel) - min(dsel), star), own))
    built.sort(key=lambda b: b[0].point)
    nodes += [b[0] for b in built]
    owns += [b[1] for b in built]
    return star, nodes, owns


def _arcs_by_loop(images, nodes, owns):
    """The reference's arcs, each joining the two nodes that own its image
    pair, and its tree checks."""
    ends = {}
    for ni, own in enumerate(owns):
        for pair in own:
            ends.setdefault(pair, []).append(ni)
    arcs = []
    for pair, ns in sorted(ends.items()):
        if len(ns) != 2:
            raise AmbiguousCut("an image pair is not shared by two nodes")
        (ax, ay), (bx, by) = images[pair[0]], images[pair[1]]
        na, nb = ns
        pa, pb = nodes[na].point, nodes[nb].point
        if ((pb[0] - pa[0]) * (ay - by) + (pb[1] - pa[1]) * (bx - ax)) < 0.0:
            na, nb = nb, na
        arcs.append(_cut_arc(pair, (na, nb), nodes[na].point,
                             nodes[nb].point))

    if len(arcs) != len(nodes) - 1:
        raise AmbiguousCut("cut locus is not a tree")
    adj = {i: [] for i in range(len(nodes))}
    for arc in arcs:
        adj[arc.nodes[0]].append(arc.nodes[1])
        adj[arc.nodes[1]].append(arc.nodes[0])
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(nodes):
        raise AmbiguousCut("cut locus is disconnected")
    for i, node in enumerate(nodes):
        deg = len(adj[i])
        if node.is_leaf and deg != len(node.images) - 1:
            raise AmbiguousCut("vertex node's degree does not match its images")
        if not node.is_leaf and deg < 3:
            raise AmbiguousCut("interior cut-locus node of degree below three")
    return arcs


# ---------------------------------------------------------------------------
# comparing the two

class _ReadPlans(_LocusPlans):
    """The plan memo, noting each key the builder reads."""

    def __init__(self):
        super().__init__()
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


@pytest.fixture(autouse=True)
def plans(monkeypatch):
    """A fresh plan memo for each test, which notes the keys read."""
    memo = _ReadPlans()
    monkeypatch.setattr(intrinsic_mod, "_LOCUS_PLANS", memo)
    return memo


def _flanks(m):
    """Each untied vertex node's pairs: corner k's flank pair."""
    return [[(k, k + 1) if k + 1 < m else (0, k)] for k in range(m)]


def _bits(value):
    """value with every float replaced by its float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple([_bits(v) for v in value])
    return value


def _outcome(build, T, x):
    """A locus's nodes and arcs to the bit, in order, or its message."""
    try:
        locus = build(T, x)
    except AmbiguousCut as exc:
        return str(exc)
    assert type(locus) is CutLocus
    return (tuple([_bits((n.point, n.distance, n.images, n.vertex, n.spread))
                   for n in locus.nodes]),
            tuple([_bits((a.images, a.nodes, a.p0, a.p1))
                   for a in locus.arcs]))


def _same(T, x):
    """The builder's outcome at x, checked against the reference's.

    Where the builder reads a plan, its key names the reference's pairs,
    and the plan is what _locus_plan made of them when the builder called
    it with each vertex node's degree its images less one: the memo's rule
    that a vertex node's degree is the number of pairs it owns gives the
    same plan.
    """
    want = _outcome(_voronoi_locus_by_loop, T, x)
    plans = intrinsic_mod._LOCUS_PLANS
    del plans.read[:]
    assert _outcome(intrinsic_mod._voronoi_locus, T, x) == want
    if plans.read:
        (key,) = plans.read
        _, nodes, owns = _nodes_by_loop(T, x)
        m = sum(node.is_leaf for node in nodes)
        vowns = [list(own) for own in owns[:m]]
        assert (vowns == _flanks(m) if key[0] == m
                else [list(own) for own in key[0]] == vowns)
        assert [list(own) for own in key[1:]] == [list(own)
                                                   for own in owns[m:]]
        assert plans[key] == _locus_plan(
            owns, [len(nd.images) - 1 if nd.is_leaf else None
                   for nd in nodes])
    return want


def _kind(outcome):
    """'built' with its junction count, or the message."""
    if isinstance(outcome, str):
        return outcome
    return "built %d" % sum(node[3] is None for node in outcome[0])


def _random(seed, i):
    return normalize(generate(GeneratorSpec(kind="random"),
                              seed=instance_stream(seed, i)))


def _sources(rng):
    """Every vertex, three points of every edge and three face points."""
    out = [vertex_point(v) for v in range(4)]
    for a, b in EDGES:
        out += [edge_point(a, b, t) for t in (0.5, rng.random(), 1e-6)]
    for f in range(4):
        out.append(face_point(f, (1 / 3, 1 / 3, 1 / 3)))
        u, v = sorted((rng.random(), rng.random()))
        out += [face_point(f, (u, v - u, 1.0 - v)),
                face_point(f, (0.5, 0.25, 0.25))]
    return out


def test_locus_matches_the_loop_on_random_and_thin_shapes():
    rng = random.Random(27)
    shapes = [_random(42, i) for i in range(12)]
    shapes += [make_eps_thick(eps, seed=s) for eps in (0.03, 0.003)
               for s in range(3)]
    shapes += [make_normal_eps_thick(0.01), make_normal_eps_thick(0.005)]
    kinds = Counter()
    for T in shapes:
        for x in _sources(rng):
            kinds[_kind(_same(T, x.canonical()))] += 1
    assert kinds["built 1"] > 100 and kinds["built 2"] > 300


def _tied_corpus():
    """(T, x) for sources on the symmetry elements of regular and isosceles
    shapes, also with the vertices moved by up to 1e-9: junctions of four
    images grouped from two triples or more, and ties merged into a
    corner."""
    rng = random.Random(5)
    shapes = [normalize(make_regular(1.0)),
              normalize(make_isosceles(0.9, 0.95, 1.0)),
              normalize(make_isosceles(0.8, 0.85, 0.9))]
    for T in list(shapes):
        moved = [tuple(c + rng.uniform(-1e-9, 1e-9) for c in v)
                 for v in T.vertices]
        shapes.append(normalize(validate_tetrahedron(moved)))
    for T in shapes:
        xs = [vertex_point(v) for v in range(4)]
        xs += [edge_point(a, b, 0.5) for a, b in EDGES]
        for f in range(4):
            xs.append(face_point(f, (1 / 3, 1 / 3, 1 / 3)))
            xs += [face_point(f, tuple(1.0 - 2.0 * t if j == k else t
                                       for j in range(3)))
                   for k in range(3) for t in (0.1, 0.25, 0.4)]
        for x in xs:
            yield T, x.canonical()


def test_locus_matches_the_loop_on_tied_sources(plans):
    kinds = Counter()
    for T, x in _tied_corpus():
        outcome = _same(T, x)
        kinds[_kind(outcome)] += 1
        if not isinstance(outcome, str):
            kinds["tied corner"] += sum(node[3] is not None
                                        and len(node[2]) > 2
                                        for node in outcome[0])
            kinds["grouped"] += sum(node[3] is None and len(node[2]) > 3
                                    for node in outcome[0])
    assert kinds["grouped"] > 20 and kinds["built 1"] > 20
    # the plans of loci with a vertex node tied are read too
    assert kinds["tied corner"] > 0
    assert any(key[0].__class__ is tuple for key in plans)


def test_locus_matches_the_loop_below_the_quality_floor():
    # ROADMAP item 10's thin shapes at floor 1e-12: the vertex loci of
    # make_eps_thick(1e-3, 14) raise on their polygon's boundary at
    # vertices 0 and 1, as the reference does, and build at 2 and 3
    T = make_eps_thick(1e-3, 14, cfg=_FLOOR_12)
    got = [_same(T, vertex_point(v)) for v in range(4)]
    assert got[:2] == ["cut-locus junction on the polygon boundary"] * 2
    assert [_kind(g) for g in got[2:]] == ["built 0"] * 2
    kinds = Counter()
    for eps in (1e-3, 1e-4):
        for seed in range(6):
            T = make_eps_thick(eps, seed=seed, cfg=_FLOOR_12)
            xs = [vertex_point(v) for v in range(4)]
            xs += [edge_point(a, b, 0.5) for a, b in EDGES]
            for x in xs:
                kinds[_kind(_same(T, x))] += 1
    assert kinds["built 2"] > 20


def test_locus_matches_the_loop_next_to_a_vertex():
    # the star itself raises within about 1e-9 * diam of a vertex, and
    # both builders raise its message
    T = _random(7, 0)
    for t in (1e-9, 1e-10, 1e-11):
        for a, b in EDGES:
            _same(T, edge_point(a, b, t).canonical())


# ---------------------------------------------------------------------------
# synthetic stars

def _star(images, corners, lengths):
    poly = tuple(itertools.chain.from_iterable(zip(images, corners)))
    cuts = tuple(CutPath(k, lengths[k], ()) for k in range(len(images)))
    return StarUnfolding(SimpleNamespace(diam=1.0), None, cuts,
                         tuple(images), tuple(corners), None, poly, None,
                         _circumcenters(tuple(images), 1.0), None)


def _circumcenter(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1])
               + c[0] * (a[1] - b[1]))
    qa, qb, qc = a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2, \
        c[0] ** 2 + c[1] ** 2
    return ((qa * (b[1] - c[1]) + qb * (c[1] - a[1]) + qc * (a[1] - b[1])) / d,
            (qa * (c[0] - b[0]) + qb * (a[0] - c[0]) + qc * (b[0] - a[0])) / d)


def _synthetic(rng, m, kind):
    """m source images around the origin and a corner on each flank
    pair's bisector, pulled in toward the origin; kind moves them so that
    the images are cocircular, a junction sits at a corner or a junction
    sits on a side, each within a few snaps (snap = 1e-7), or are mirrored
    in the y axis."""
    snap = DEDUP_TOL
    gap = 2.0 * math.pi / m
    angles = [k * gap + rng.uniform(-0.3, 0.3) * gap for k in range(m)]
    radii = [1.0 if kind == "cocircular" else rng.uniform(0.7, 1.3)
             for _ in range(m)]
    if kind == "cocircular" and rng.random() < 0.5:
        radii = [1.0 + rng.uniform(-2.0, 2.0) * snap for _ in range(m)]
    images = [(r * math.cos(t), r * math.sin(t))
              for r, t in zip(radii, angles)]
    if kind == "mirror":
        # mirrored in the y axis, clockwise: a triple's circumcenter can
        # then sit at x = -0.0
        a, b = rng.uniform(0.5, 1.0), rng.uniform(-0.8, -0.2)
        images = ([(0.0, 1.0), (a, b), (-a, b)] if m == 3 else
                  [(0.0, 1.0), (a, b), (0.0, -rng.uniform(0.8, 1.2)),
                   (-a, b)])
    corners = []
    for k in range(m):
        a, b = images[k], images[(k + 1) % m]
        mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
        s = rng.uniform(0.1, 0.9)
        corners.append((s * mid[0], s * mid[1]))
    k = rng.randrange(m)
    tri = [images[(k + j) % m] for j in range(3)]
    c = _circumcenter(*tri)
    jitter = rng.choice([0.0, 0.3, 0.9, 1.1, 3.0]) * snap
    turn = rng.uniform(0.0, 2.0 * math.pi)
    off = (jitter * math.cos(turn), jitter * math.sin(turn))
    if kind == "corner":
        # the junction of images k, k + 1 and k + 2 at corner k
        corners[k] = (c[0] + off[0], c[1] + off[1])
    elif kind == "side":
        # the side from image k to corner k through that junction
        a = images[k]
        t = rng.uniform(1.2, 2.0)
        corners[k] = (a[0] + t * (c[0] + off[0] - a[0]),
                      a[1] + t * (c[1] + off[1] - a[1]))
    lengths = [math.dist(corners[j], images[j]) for j in range(m)]
    return _star(images, corners, lengths)


@pytest.mark.parametrize("m", [3, 4])
def test_locus_matches_the_loop_on_synthetic_stars(monkeypatch, m):
    rng = random.Random(100 + m)
    T = SimpleNamespace(diam=1.0)
    kinds = Counter()
    for kind in ("generic", "cocircular", "corner", "side", "mirror"):
        for _ in range(400):
            star = _synthetic(rng, m, kind)
            monkeypatch.setattr(intrinsic_mod, "star_unfold",
                                lambda T_, x, star=star: star)
            outcome = _same(T, None)
            kinds[kind, _kind(outcome)] += 1
            if not isinstance(outcome, str):
                kinds["zero x"] += sum(node[0][0] == "0x0.0p+0"
                                       for node in outcome[0])
    assert kinds["side", "cut-locus junction on the polygon boundary"] > 50
    assert kinds["corner", "built 0" if m == 3 else "built 1"] > 20
    assert kinds["generic", "built 1" if m == 3 else "built 2"] > 50
    if m == 4:
        assert kinds["cocircular", "built 1"] > 20
    # a lone junction at x = -0.0 reads 0.0, as the mean of one point does
    assert kinds["zero x"] > 50
    # every message of the builder is reached
    messages = {k[1] for k in kinds if not k[1].startswith("built")}
    assert "an image pair is not shared by two nodes" in messages


def test_locus_plan_matches_the_loop_on_random_pairs(plans):
    # nodes owning random image pairs, duplicates included: _locus_plan's
    # arcs and first failed check are the reference's, and the memo's
    # plans, of both key forms, are _locus_plan's
    rng = random.Random(11)
    pairs = list(itertools.combinations(range(4), 2))
    images = [(rng.random(), rng.random()) for _ in range(4)]
    verdicts = Counter()
    for _ in range(4000):
        # a random graph on 3 or 4 vertex nodes and up to 3 junctions, each
        # arc labelled with its own pair, a vertex node's images mostly
        # one more than its arcs; now and then a pair is dropped or repeated
        leaves = rng.randint(3, 4)
        n = leaves + rng.randint(0, 3)
        owns = [[] for _ in range(n)]
        for pair in rng.sample(pairs, min(6, n - 1 + rng.choice([-1, 0, 0,
                                                                  0, 1]))):
            if rng.random() < 0.7:
                # grow a tree: join the next unattached node to an earlier one
                bare = [k for k in range(1, n) if not owns[k]] or [n - 1]
                na, nb = rng.randrange(bare[0]), bare[0]
            else:
                na, nb = rng.sample(range(n), 2)
            owns[na].append(pair)
            owns[nb].append(pair)
        k = rng.randrange(n)
        if owns[k] and rng.random() < 0.1:
            owns[k] = owns[k][1:] if rng.random() < 0.5 else owns[k] * 2
        nodes = [_cut_node((rng.random(), rng.random()), 1.0,
                           tuple(range(len(owns[k]) + 1
                                       + (rng.random() < 0.1))),
                           k if k < leaves else None, 0.0, None)
                 for k in range(n)]
        try:
            want = [(a.images, tuple(sorted(a.nodes)))
                    for a in _arcs_by_loop(images, nodes, owns)]
        except AmbiguousCut as exc:
            want = str(exc)
        plan = _locus_plan(owns, [len(nd.images) - 1 if nd.is_leaf else None
                                  for nd in nodes])
        got = plan if isinstance(plan, str) else [(p, (na, nb))
                                                  for p, na, nb in plan]
        assert got == want
        verdicts[want if isinstance(want, str) else "tree"] += 1
    assert len(verdicts) == 6 and min(verdicts.values()) > 5
    # the tied corpus fills the memo with keys of both forms: the image
    # count m where every vertex node owns its flank pair, and the vertex
    # nodes' pairs where a tie merges a junction into a corner
    for T, x in _tied_corpus():
        try:
            intrinsic_mod._voronoi_locus(T, x)
        except AmbiguousCut:
            pass
    forms = Counter()
    for key, plan in plans.items():
        head, juncs = key[0], list(key[1:])
        if head.__class__ is int:
            vowns, degrees = _flanks(head), [1] * head
        else:
            vowns = [list(own) for own in head]
            degrees = [len(own) for own in head]
        forms[head.__class__] += 1
        assert plan == _locus_plan(vowns + juncs,
                                   degrees + [None] * len(juncs))
    assert forms[int] > 3 and forms[tuple] > 3


def test_the_written_out_point_tests_match_the_loops():
    # the point test and the side test the builder runs on both shapes
    # decide as the loops do, on 6-gons and 8-gons
    rng = random.Random(3)
    checked = Counter()
    for m in (3, 4):
        for _ in range(300):
            star = _synthetic(rng, m, rng.choice(["generic", "side"]))
            poly = star.poly
            pts = [p for p in poly]
            pts += [(p[0] + rng.uniform(-2e-7, 2e-7),
                     p[1] + rng.uniform(-2e-7, 2e-7)) for p in poly]
            pts += [(rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3))
                    for _ in range(10)]
            pts += [c[1] for c in _circumcenters(star.images, 1.0)]
            for pt in pts:
                for tol in (1e-7, 0.05):
                    near = any(_side_within(pt, poly[i - 1], poly[i], tol)
                               for i in range(len(poly)))
                    assert _star_sides_within(pt, poly, tol) is near
                    assert (_point_in_star(pt, poly, tol)
                            is _point_in_polygon(pt, poly, tol))
                    checked[m, near] += 1
    # and on the stars of random and thin shapes: their junction
    # candidates, corners and points a snap or two off the corners
    for T in [_random(42, i) for i in range(6)] + [
            make_eps_thick(0.003, seed=s) for s in range(3)]:
        snap = DEDUP_TOL * T.diam
        for x in [vertex_point(v) for v in range(4)] + [
                edge_point(a, b, 0.3) for a, b in EDGES]:
            star = intrinsic_mod.star_unfold(T, x)
            poly = star.poly
            pts = [c[1] for c in star.junctions]
            pts += [(p[0] + dx, p[1] + dy) for p in poly
                    for dx, dy in ((0.0, 0.0), (snap, 0.0),
                                   (-2 * snap, snap), (0.0, -0.5 * snap))]
            for pt in pts:
                near = any(_side_within(pt, poly[i - 1], poly[i], snap)
                           for i in range(len(poly)))
                assert _star_sides_within(pt, poly, snap) is near
                assert (_point_in_star(pt, poly, snap)
                        is _point_in_polygon(pt, poly, snap))
                checked["star", near] += 1
    assert min(checked.values()) > 300


def test_a_report_without_ties_plans_no_locus(monkeypatch):
    # compute_report on random shapes, with a fresh memo, plans each key
    # once, on its first read, and every later locus of that key reads the
    # plan: no tie, so no angular ring
    calls = Counter()
    for mod, name in ((locus_mod, "_locus_plan"),
                      (intrinsic_mod, "_ring_pairs")):
        fn = getattr(mod, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(mod, name, counted)
    missed = Counter()

    class Counted(_LocusPlans):
        def __missing__(self, key):
            missed[key] += 1
            return super().__missing__(key)

    memo = Counted()
    monkeypatch.setattr(intrinsic_mod, "_LOCUS_PLANS", memo)
    built = Counter()
    voronoi = intrinsic_mod._voronoi_locus

    def counted_locus(T, x):
        built[len(intrinsic_mod.star_unfold(T, x).images)] += 1
        return voronoi(T, x)

    monkeypatch.setattr(intrinsic_mod, "_voronoi_locus", counted_locus)
    for i in range(4):
        compute_report(_random(42, i))
    assert built[3] > 0 and built[4] > 0
    assert set(missed.values()) == {1}
    assert sorted(memo) == sorted(missed)
    assert {key[0] for key in memo} == {3, 4}
    assert calls == Counter({"_locus_plan": len(memo)})
    assert sum(built.values()) > len(memo)


def test_surface_query_bundles_match_the_pin():
    # bundles 0-299 of seed 7 of surface-query traffic, every call's
    # result to the bit (tests/bundle_digest.py --check; its run command
    # re-pins tests/data/bundle_digest.json)
    assert bundle_digest.check() == []


# ---------------------------------------------------------------------------
# defects reproduced before they are fixed

def _well_formed(locus, leaves):
    """A tree on the locus's nodes whose vertex nodes are leaves."""
    n = len(locus.nodes)
    assert len(locus.arcs) == n - 1
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for arc in locus.arcs:
        a, b = find(arc.nodes[0]), find(arc.nodes[1])
        assert a != b
        parent[a] = b
    assert sorted(locus.nodes[i].vertex for i in locus.leaves()) == leaves


@pytest.mark.parametrize("v", [2, 3])
def test_thin_vertex_locus_below_the_floor_builds(v):
    T = make_eps_thick(1e-3, 14, cfg=_FLOOR_12)
    _well_formed(cut_locus(T, vertex_point(v)),
                 [w for w in range(4) if w != v])


@pytest.mark.xfail(strict=True, raises=AmbiguousCut,
                   reason="ROADMAP item 10: a junction within snap of the "
                          "polygon's boundary raises")
@pytest.mark.parametrize("v", [0, 1])
def test_thin_vertex_locus_below_the_floor_is_a_tree(v):
    # make_eps_thick(1e-3, 14) at floor 1e-12 (volume 5.7e-10 * diam^3):
    # the cut loci of vertices 0 and 1 raise "cut-locus junction on the
    # polygon boundary", so Diam fails there
    T = make_eps_thick(1e-3, 14, cfg=_FLOOR_12)
    _well_formed(cut_locus(T, vertex_point(v)),
                 [w for w in range(4) if w != v])


@pytest.mark.xfail(strict=True, raises=AmbiguousCut,
                   reason="ROADMAP item 5: the cut locus's tolerances in "
                          "units of diam decide junctions next to a cut "
                          "1e-9 * diam long")
def test_near_vertex_edge_source_locus_is_a_tree():
    # instance 0 of instance_stream(7, .), normalized: the star from the
    # edge point 1e-9 from vertex 0 builds, but its cut locus raises "an
    # image pair is not shared by two nodes": the images flanking the cut
    # to vertex 0, 1e-9 * diam long, lie within DEDUP_TOL * diam of each
    # other and of its corner
    T = _random(7, 0)
    _well_formed(cut_locus(T, edge_point(0, 1, 1e-9)), [0, 1, 2, 3])
