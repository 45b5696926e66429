"""SVG rendering of unfoldings: structure, layers, and exact metadata."""

import json
import math
import xml.etree.ElementTree as ET

import pytest

import tetrametric.intrinsic as intrinsic
from tetrametric import svg
from tetrametric import (EDGES, SearchExhausted, Tetrahedron, edge_point,
                         export_unfolding, face_point, make_eps_thick,
                         make_isosceles, make_normal_eps_thick, make_regular,
                         normalize, random_tetrahedron, star_unfold,
                         vertex_point)
from tetrametric.geometry import GEOM_TOL

REG = normalize(make_regular(1.0))

# random, regular, isosceles and thin shapes, each drawn from every vertex,
# a point of every edge and a point inside every face
_SHAPES = ([normalize(random_tetrahedron(i)) for i in range(20)]
           + [REG, make_isosceles(5.0, 6.0, 7.0), make_eps_thick(0.1, 0),
              make_eps_thick(0.03, 1), make_normal_eps_thick(0.05)])
_SOURCES = ([vertex_point(v) for v in range(4)]
            + [edge_point(a, b, 0.3) for a, b in EDGES]
            + [face_point(f, (0.5, 0.3, 0.2)) for f in range(4)])


def _parse(svg):
    root = ET.fromstring(svg)
    meta = json.loads(root.find("{*}metadata").text)
    layers = {g.get("id"): list(g) for g in root.findall("{*}g")}
    return root, meta, layers


def test_star_from_regular_vertex():
    svg = export_unfolding(REG, vertex_point(0), mode="star")
    root, meta, layers = _parse(svg)
    assert meta["mode"] == "star"
    assert meta["polygon_simple"] is True
    assert float(meta["polygon_area"]) == pytest.approx(math.sqrt(3.0), rel=1e-9)
    assert float(meta["surface_area"]) == pytest.approx(math.sqrt(3.0), rel=1e-9)
    assert set(layers) == {"faces", "cuts", "cutlocus", "markers"}
    # three cuts produce a six-sided boundary and a three-arc locus
    assert len(layers["cuts"]) == 6
    assert len(layers["cutlocus"]) == 3
    assert len(layers["markers"]) == 6


def test_star_isosceles_all_vertices():
    T = make_isosceles(5.0, 6.0, 7.0)
    area = 4.0 * math.sqrt(9.0 * 4.0 * 3.0 * 2.0)  # four Heron faces
    for v in range(4):
        svg = export_unfolding(T, vertex_point(v), mode="star")
        _, meta, layers = _parse(svg)
        assert meta["polygon_simple"] is True
        assert float(meta["polygon_area"]) == pytest.approx(area, rel=1e-9)
        assert layers["cutlocus"]


def test_star_area_matches_surface_for_interior_source():
    T = normalize(random_tetrahedron(3))
    svg = export_unfolding(T, face_point(1, (0.4, 0.27, 0.33)), mode="star")
    _, meta, layers = _parse(svg)
    assert meta["polygon_simple"] is True
    assert (float(meta["polygon_area"])
            == pytest.approx(float(meta["surface_area"]), rel=1e-6))
    # interior source: eight boundary sides, four source + four vertex dots
    assert len(layers["cuts"]) == 8
    assert len(layers["markers"]) == 8


def test_source_mode():
    svg = export_unfolding(REG, face_point(2, (0.5, 0.3, 0.2)), mode="source")
    _, meta, layers = _parse(svg)
    assert meta["mode"] == "source"
    # cuts radiate from the source: one per vertex
    assert len(layers["cuts"]) == 4
    assert layers["cutlocus"]
    assert layers["faces"]


def test_rejects_unknown_mode():
    with pytest.raises(ValueError):
        export_unfolding(REG, vertex_point(0), mode="net")


def test_svg_is_deterministic():
    a = export_unfolding(REG, vertex_point(1), mode="star")
    b = export_unfolding(REG, vertex_point(1), mode="star")
    assert a == b
    assert a.startswith('<?xml version="1.0"')


def test_untraceable_locus_is_noted_not_fatal(monkeypatch):
    # a locus node that does not map back to the surface leaves the star
    # drawn and the locus layer empty, as an ambiguous cut does
    def lost(*args):
        raise SearchExhausted("the point lies outside the star")
    monkeypatch.setattr(intrinsic.StarUnfolding, "to_surface", lost)
    # a fresh T: the loci of REG are kept, their nodes traced by earlier reads
    T = Tetrahedron(REG.vertices)
    svg = export_unfolding(T, face_point(2, (0.5, 0.3, 0.2)), mode="star")
    _, meta, layers = _parse(svg)
    assert "outside the star" in meta["note"]
    assert layers["cuts"] and not layers["cutlocus"]


def _edge_shares(star):
    """{edge: [(t0, t1), ...]}: the parameter ranges, from the edge's first
    vertex, that the edge's pieces develop, in order.  An edge that holds
    the source has none, the edge an opposite cut crosses has two, split at
    the crossing, and every other edge one."""
    supp = set(star.source.support())
    split = {e: t for cut in star.cuts for e, t in cut.crossings}
    shares = {}
    for e in EDGES:
        if supp <= set(e):
            shares[e] = []
        elif e in split:
            shares[e] = [(0.0, split[e]), (split[e], 1.0)]
        else:
            shares[e] = [(0.0, 1.0)]
    return shares


def test_edge_pieces_develop_the_edges():
    # each piece is as long as its share of the edge, and its midpoint is
    # where the star places the edge point at the middle of that share
    # (_star_position): no chord through an edge source, no piece placed
    # off the star's own map
    for T in _SHAPES:
        tol = 1e-12 * T.diam
        for x in _SOURCES:
            star = star_unfold(T, x)
            got = {e: [] for e in EDGES}
            for e, p, q, t0, t1 in intrinsic._edge_pieces(star):
                got[e].append((p, q, t0, t1))
            for e, shares in _edge_shares(star).items():
                assert [piece[2:] for piece in got[e]] == shares, (x, e)
                for p, q, t0, t1 in got[e]:
                    assert math.dist(p, q) == pytest.approx(
                        (t1 - t0) * T.elen[e], abs=tol)
                    mid = intrinsic._star_position(
                        star, edge_point(*e, 0.5 * (t0 + t1)))
                    assert math.dist(mid, (0.5 * (p[0] + q[0]),
                                           0.5 * (p[1] + q[1]))) <= tol


def test_source_mode_draws_no_slivers(monkeypatch):
    # an edge that touches a cell only at a corner is clipped to a sliver
    # there; no faces line shorter than GEOM_TOL * diam is drawn
    drawn = []
    segment = svg._segment

    def record(p, q, style):
        drawn.append((p, q, style))
        return segment(p, q, style)

    monkeypatch.setattr(svg, "_segment", record)
    for T in _SHAPES:
        for x in _SOURCES:
            del drawn[:]
            _, meta, _ = _parse(export_unfolding(T, x, mode="source"))
            # the drawn points are source-mode points times the scale,
            # which the metadata prints to 12 digits
            sc = float(meta["scale"])
            faces = [math.dist(p, q) / sc for p, q, style in drawn
                     if style == svg._STYLE_FACE]
            assert faces
            assert min(faces) >= GEOM_TOL * T.diam * (1.0 - 1e-9)


def test_clips_add_up_to_their_piece():
    # the nearest-image cells tile the plane, so the clips of a piece add
    # up to the piece, less the slivers dropped
    for T in _SHAPES:
        for x in _SOURCES:
            star = star_unfold(T, x)
            for _, p, q, _, _ in intrinsic._edge_pieces(star):
                clips = [svg._clip_seg_cell(p, q, star, k)
                         for k in range(len(star.images))]
                total = sum(math.dist(*c) for c in clips if c is not None)
                assert total == pytest.approx(math.dist(p, q),
                                              abs=1e-9 * T.diam)


def test_coordinates_that_round_to_zero_print_unsigned():
    # a value that rounds to zero from below prints as "0.00", not
    # "-0.00"; every other value prints as "%.2f" prints it
    assert svg._fmt(-0.004) == "0.00"
    assert svg._fmt(-0.005) == "-0.01"
    assert svg._fmt(0.004) == "0.00"
    assert svg._fmt(-0.0) == "0.00"
    assert svg._fmt(-1.234) == "-1.23"
