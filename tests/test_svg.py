"""SVG rendering of unfoldings: structure, layers, and exact metadata."""

import json
import math
import xml.etree.ElementTree as ET

import pytest

import tetrametric.intrinsic as intrinsic
from tetrametric import (SearchExhausted, Tetrahedron, export_unfolding,
                         face_point, make_isosceles, make_regular, normalize,
                         random_tetrahedron, vertex_point)

REG = normalize(make_regular(1.0))


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
    # a locus node that cannot be traced back to the surface leaves the
    # star drawn and the locus layer empty, as an ambiguous cut does
    def lost(*args):
        raise SearchExhausted("ray tracing lost the surface")
    monkeypatch.setattr(intrinsic, "trace_ray", lost)
    # a fresh T: the loci of REG are kept, their nodes traced by earlier reads
    T = Tetrahedron(REG.vertices)
    svg = export_unfolding(T, face_point(2, (0.5, 0.3, 0.2)), mode="star")
    _, meta, layers = _parse(svg)
    assert "lost the surface" in meta["note"]
    assert layers["cuts"] and not layers["cutlocus"]
