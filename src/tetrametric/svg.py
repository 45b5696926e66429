"""SVG rendering of star and source unfoldings.

Both modes draw three layers: ``faces`` holds the developed images of the
tetrahedron edges, ``cuts`` the developed cut paths, and ``cutlocus`` the
cut locus.  The drawing is exact: edge images are split at their crossings
with cut paths, and each straight piece is placed by the crossing's arc
position along the cut, not by sampling.
"""

from __future__ import annotations

import json
import math

from .errors import AmbiguousCut
from .geometry import DEFAULT_CFG, EDGES, dist3, edge_point
from .intrinsic import (_point_in_polygon, _polygon_simple, cut_locus,
                        star_unfold)

_VIEW = 800.0  # drawing span in user units; 2-decimal coords stay sharp


def _cut_events(T, star):
    """Crossings of cut paths with tetrahedron edges.

    Returns a map edge -> sorted list of (t, k, s) where t is the position
    along the edge, k the cut index, and s the arc length from the source to
    the crossing along cut k.
    """
    events = {e: [] for e in EDGES}
    for k, cut in enumerate(star.cuts):
        prev = T.xyz(star.source)
        s = 0.0
        for (i, j), t in cut.path.crossings:
            pt = T.xyz(edge_point(i, j, t))
            s += dist3(pt, prev)
            events[(i, j)].append((t, k, s))
            prev = pt
    for e in events:
        events[e].sort()
    return events


def _corner_index(star, v):
    for k, cut in enumerate(star.cuts):
        if cut.vertex == v:
            return k
    return None


def _event_images(star, k, s):
    """The two boundary images of the point at arc position s along cut k."""
    m = len(star.images)
    w = star.corners[k]
    a0 = star.images[k]
    a1 = star.images[(k + 1) % m]
    f = s / star.cuts[k].length
    return ((a0[0] + f * (w[0] - a0[0]), a0[1] + f * (w[1] - a0[1])),
            (a1[0] + f * (w[0] - a1[0]), a1[1] + f * (w[1] - a1[1])))


def _edge_pieces(T, star, cfg):
    """Developed images of every tetrahedron edge in the star chart.

    Each edge is a geodesic, so between consecutive cut crossings its image
    is a straight segment; at a crossing the image continues from the twin
    copy of the crossing point on the other side of the cut.  Edges incident
    to a vertex source coincide with cut paths and are left to that layer.
    """
    events = _cut_events(T, star)
    poly = star.polygon()
    scale = T.diam
    len_tol = 1e-6 * scale
    snap = cfg.dedup_tol * scale
    pieces = []
    for (u, v) in EDGES:
        ku = _corner_index(star, u)
        kv = _corner_index(star, v)
        if ku is None or kv is None:
            continue
        L = T.elen[(u, v)]
        cur = star.corners[ku]
        t_prev = 0.0
        for (t, k, s) in events[(u, v)]:
            want = (t - t_prev) * L
            c1, c2 = _event_images(star, k, s)
            best = None
            for near, far in ((c1, c2), (c2, c1)):
                err = abs(math.hypot(near[0] - cur[0], near[1] - cur[1]) - want)
                mid = (0.5 * (cur[0] + near[0]), 0.5 * (cur[1] + near[1]))
                good = err <= len_tol and _point_in_polygon(mid, poly, snap)
                key = (0 if good else 1, err)
                if best is None or key < best[0]:
                    best = (key, near, far)
            pieces.append(((u, v), cur, best[1]))
            cur = best[2]
            t_prev = t
        pieces.append(((u, v), cur, star.corners[kv]))
    return pieces


def _fmt(x):
    return "%.2f" % x


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


def export_unfolding(T, source, mode="star", cfg=DEFAULT_CFG):
    """Render the star or source unfolding from ``source`` as an SVG string.

    When the cut structure at the exact source is ambiguous, the locus layer
    comes from the stabilized nudged source and the metadata notes the
    perturbation; if even that fails, the locus layer is left empty and the
    metadata carries the reason.
    """
    if mode not in ("star", "source"):
        raise ValueError("mode must be 'star' or 'source'")
    source = source.canonical()
    note = None
    locus = None
    try:
        locus = cut_locus(T, source, cfg, resolve=True, back_map=False)
        star = locus.star
        if locus.perturbation is not None:
            note = ("ambiguous cut structure at the requested source; "
                    "drawn from a source nudged by %.3g"
                    % locus.perturbation[1])
    except AmbiguousCut as exc:
        note = "ambiguous cut structure; no cut locus drawn (%s)" % exc
        star = star_unfold(T, source, cfg, tie_guard=False)

    pieces = _edge_pieces(T, star, cfg)
    m = len(star.images)
    poly = star.polygon()

    if mode == "star":
        segs_faces = [(p, q) for (_, p, q) in pieces]
        segs_cuts = [(poly[i], poly[(i + 1) % len(poly)])
                     for i in range(len(poly))]
        segs_locus = [(a.p0, a.p1) for a in locus.arcs] if locus else []
        dots_src = list(star.images)
        dots_vtx = list(star.corners)
        all_pts = list(poly) + [p for s in segs_locus for p in s]
    else:
        segs_faces = []
        for (_, p, q) in pieces:
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
        "polygon_simple": _polygon_simple(poly, 1e-9 * T.diam),
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


def _clip_seg_cell(p, q, star, k):
    """Clip segment pq to the nearest-image cell of image k."""
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
    return ((p[0] + t0 * d[0], p[1] + t0 * d[1]),
            (p[0] + t1 * d[0], p[1] + t1 * d[1]))
