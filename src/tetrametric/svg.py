"""SVG rendering of star and source unfoldings.

Both modes draw three layers: ``faces`` holds the developed images of the
tetrahedron edges, ``cuts`` the developed cut paths, and ``cutlocus`` the
cut locus.  The drawing is exact: edge images are read off the star's
corners and, where a face source's opposite cut crosses an edge, off the
two copies of that crossing on the star's boundary, not sampled.
"""

from __future__ import annotations

import json
import math

from .errors import AmbiguousCut, SearchExhausted
from .geometry import GEOM_TOL
from .intrinsic import _edge_pieces, cut_locus, star_unfold

_VIEW = 800.0  # drawing span in user units; 2-decimal coords stay sharp


def _fmt(x):
    """x to two decimals, with no sign on a value that rounds to zero."""
    out = "%.2f" % x
    return "0.00" if out == "-0.00" else out


def _segment(p, q, style):
    return ('<line x1="%s" y1="%s" x2="%s" y2="%s" style="%s"/>'
            % (_fmt(p[0]), _fmt(p[1]), _fmt(q[0]), _fmt(q[1]), style))


def _dot(p, r, style):
    return ('<circle cx="%s" cy="%s" r="%s" style="%s"/>'
            % (_fmt(p[0]), _fmt(p[1]), _fmt(r), style))


_STYLE_FACE = "stroke:#888888;stroke-width:1.5"
_STYLE_CUT = "stroke:#cc3333;stroke-width:1.5;stroke-dasharray:6 4"
_STYLE_LOCUS = "stroke:#2255cc;stroke-width:2"
_STYLE_SRC = "fill:#cc3333"
_STYLE_VTX = "fill:#333333"


def _bounds(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (min(xs), min(ys), max(xs), max(ys))


def export_unfolding(T, source, mode="star"):
    """Render the star or source unfolding from ``source`` as an SVG string.

    When the cut locus at the source does not build (AmbiguousCut) or a
    locus node does not map back to the surface, the locus layer is left
    empty and the metadata carries the reason.
    """
    if mode not in ("star", "source"):
        raise ValueError("mode must be 'star' or 'source'")
    source = source.canonical()
    note = None
    locus = None
    try:
        built = cut_locus(T, source)
        # junctions are mapped back on first read: one that does not map
        # raises here and leaves the locus layer empty
        for node in built.nodes:
            node.surface
        locus, star = built, built.star
    except AmbiguousCut as exc:
        note = "ambiguous cut structure; no cut locus drawn (%s)" % exc
        star = star_unfold(T, source)
    except SearchExhausted as exc:
        note = "cut locus not mapped back; no cut locus drawn (%s)" % exc
        star = star_unfold(T, source)

    pieces = _edge_pieces(star)
    m = len(star.images)
    poly = star.poly

    if mode == "star":
        frame = _star_frame(star)
        poly = [frame(p) for p in poly]
        segs_faces = [(frame(p), frame(q)) for _, p, q, _, _ in pieces]
        segs_cuts = [(poly[i], poly[(i + 1) % len(poly)])
                     for i in range(len(poly))]
        segs_locus = ([(frame(a.p0), frame(a.p1)) for a in locus.arcs]
                      if locus else [])
        dots_src = poly[0::2]
        dots_vtx = poly[1::2]
        all_pts = poly + [p for s in segs_locus for p in s]
    else:
        segs_faces = []
        for _, p, q, _, _ in pieces:
            for k in range(m):
                clip = _clip_seg_cell(p, q, star, k)
                if clip is not None:
                    segs_faces.append((star.transform_to_source(k, clip[0]),
                                       star.transform_to_source(k, clip[1])))
        segs_cuts = [((0.0, 0.0), star.transform_to_source(k, star.corners[k]))
                     for k in range(m)]
        segs_locus = []
        if locus is not None:
            for a in locus.arcs:
                k = a.images[0]
                segs_locus.append((star.transform_to_source(k, a.p0),
                                   star.transform_to_source(k, a.p1)))
        dots_src = [(0.0, 0.0)]
        dots_vtx = [q for (_, q) in segs_cuts]
        all_pts = ([p for s in segs_faces + segs_cuts + segs_locus for p in s]
                   + [(0.0, 0.0)])

    b = _bounds(all_pts)
    span = max(b[2] - b[0], b[3] - b[1])
    sc = _VIEW / span if span > 0.0 else 1.0

    def tp(p):
        return (p[0] * sc, -p[1] * sc)

    meta = {
        "mode": mode,
        "source": {"face": source.face,
                   "bary": ["%.12g" % c for c in source.bary]},
        # a star unfolding never overlaps itself (Aronov & O'Rourke 1992),
        # and every star is laid out as one on its cell
        "polygon_simple": True,
        "polygon_area": "%.12g" % abs(star.area()),
        "surface_area": "%.12g" % T.area,
        "scale": "%.12g" % sc,
    }
    if note is not None:
        meta["note"] = note

    tb = _bounds([tp(p) for p in all_pts])
    x0, y0, x1, y1 = tb
    pad = 0.05 * max(x1 - x0, y1 - y0)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="%s %s %s %s">' % (_fmt(x0 - pad), _fmt(y0 - pad),
                                    _fmt(x1 - x0 + 2 * pad),
                                    _fmt(y1 - y0 + 2 * pad)),
        '<metadata>%s</metadata>' % json.dumps(meta, sort_keys=True),
    ]
    out.append('<g id="faces">')
    for p, q in segs_faces:
        out.append(_segment(tp(p), tp(q), _STYLE_FACE))
    out.append('</g>')
    out.append('<g id="cuts">')
    for p, q in segs_cuts:
        out.append(_segment(tp(p), tp(q), _STYLE_CUT))
    out.append('</g>')
    out.append('<g id="cutlocus">')
    for p, q in segs_locus:
        out.append(_segment(tp(p), tp(q), _STYLE_LOCUS))
    out.append('</g>')
    out.append('<g id="markers">')
    r = 0.006 * _VIEW
    for p in dots_src:
        out.append(_dot(tp(p), r, _STYLE_SRC))
    for p in dots_vtx:
        out.append(_dot(tp(p), r, _STYLE_VTX))
    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def _star_frame(star):
    """The rigid map of the plane that puts the star's image 0 at the
    origin and its corner 0 on the positive x axis: a star drawing's
    frame."""
    (ax, ay), (wx, wy) = star.images[0], star.corners[0]
    n = math.hypot(wx - ax, wy - ay)
    co, si = (wx - ax) / n, (wy - ay) / n

    def frame(p):
        dx, dy = p[0] - ax, p[1] - ay
        # + 0.0 makes a zero +0.0, as the walk laid image 0 out
        return (co * dx + si * dy + 0.0, co * dy - si * dx + 0.0)

    return frame


def _clip_seg_cell(p, q, star, k):
    """Clip segment pq to the nearest-image cell of image k.

    None when less than GEOM_TOL * diam of it is left: an edge that touches
    the cell only at a corner leaves a sliver there, which draws nothing.
    """
    images = star.images
    ak = images[k]
    t0, t1 = 0.0, 1.0
    d = (q[0] - p[0], q[1] - p[1])
    for j, aj in enumerate(images):
        if j == k:
            continue
        # halfplane |y-ak| <= |y-aj|:  y.(aj-ak) <= (|aj|^2-|ak|^2)/2
        nx, ny = aj[0] - ak[0], aj[1] - ak[1]
        c = 0.5 * (aj[0] * aj[0] + aj[1] * aj[1]
                   - ak[0] * ak[0] - ak[1] * ak[1])
        f0 = p[0] * nx + p[1] * ny - c
        df = d[0] * nx + d[1] * ny
        if abs(df) < 1e-18:
            if f0 > 0.0:
                return None
            continue
        t_hit = -f0 / df
        if df > 0.0:
            t1 = min(t1, t_hit)
        else:
            t0 = max(t0, t_hit)
        if t0 >= t1:
            return None
    a = (p[0] + t0 * d[0], p[1] + t0 * d[1])
    b = (p[0] + t1 * d[0], p[1] + t1 * d[1])
    return (a, b) if math.dist(a, b) >= GEOM_TOL * star.tetra.diam else None
