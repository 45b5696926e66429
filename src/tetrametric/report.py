"""Metric reports, inequality margins, and bulk verification campaigns.

A report gathers the four size measures of one tetrahedron surface — the
geodesic diameter and radius and their chord counterparts — together with
witnesses, the six pairwise ratios, and the margins of every ratio bound.
Campaigns evaluate seeded instance streams, collect extremal instances per
ratio, and flag violations; a derivative-free refinement sharpens the
smallest observed geodesic diameter-to-radius ratio into search evidence.

All JSON and CSV output is deterministic: fixed field order and 12
significant digits, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import TetraError
from .extrinsic import (FarthestSet, extrinsic_diameter, extrinsic_radius)
from .generators import (GeneratorSpec, generate, instance_stream, normalize,
                         make_regular, shape_distance, spec_to_json)
from .geometry import (DEDUP_TOL, DEFAULT_CFG, GEOM_TOL, SurfacePoint,
                       Tetrahedron, ToleranceConfig, _oriented,
                       surface_point_to_json, validate_tetrahedron)
from .intrinsic import intrinsic_diameter, intrinsic_radius

__all__ = [
    "MetricReport",
    "ViolationRecord",
    "CampaignResult",
    "RefinementResult",
    "RATIO_KEYS",
    "BOUNDS",
    "CSV_COLUMNS",
    "compute_report",
    "report_margins",
    "check_inequalities",
    "campaign",
    "refine_min_ratio",
    "canonical_json",
]

RATIO_KEYS = ("Diam_over_diam", "Diam_over_Rad", "diam_over_rad",
              "Rad_over_rad", "rad_over_Diam", "Rad_over_diam")

#: (margin key, ratio key, side, bound).  Lower bounds must not be
#: undershot, upper bounds not overshot; the final entry is the wide
#: geodesic-vs-chord diameter cap, a sanity bound rather than sharp.
BOUNDS = (
    ("m_Diam_diam_lo", "Diam_over_diam", "lower", 1.0),
    ("m_Diam_diam_hi", "Diam_over_diam", "upper", 2.0 / math.sqrt(3.0)),
    ("m_Diam_Rad_lo", "Diam_over_Rad", "lower", 1.0),
    ("m_Diam_Rad_hi", "Diam_over_Rad", "upper", 2.0),
    ("m_diam_rad_lo", "diam_over_rad", "lower", 1.0),
    ("m_diam_rad_hi", "diam_over_rad", "upper", 2.0),
    ("m_Rad_diam_hi", "Rad_over_diam", "upper", 1.0),
    ("m_Rad_rad_lo", "Rad_over_rad", "lower", 1.0),
    ("m_Rad_rad_hi", "Rad_over_rad", "upper", 2.0),
    ("m_rad_Diam_lo", "rad_over_Diam", "lower", math.sqrt(3.0) / 4.0),
    ("m_rad_Diam_hi", "rad_over_Diam", "upper", 1.0),
    ("m_Diam_diam_cap", "Diam_over_diam", "upper", math.pi / 2.0),
)


# ---------------------------------------------------------------------------
# deterministic serialization

def _num(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ValueError("non-finite number in report output")
    return "%.12g" % x


def _write(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (bool, int, float)):
        out.append(_num(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k), ensure_ascii=False) + ": ")
            _write(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _write(v, out)
        out.append("]")
    else:
        raise TypeError("unsupported type in report output: %r" % type(obj))


def canonical_json(obj):
    """Serialize with fixed field order and 12 significant digits."""
    out = []
    _write(obj, out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# single-instance report

@dataclass(frozen=True)
class MetricReport:
    """All four size measures of one surface, with witnesses and ratios."""

    tetrahedron: Tetrahedron
    Diam: float
    diam: float
    Rad: float
    rad: float
    Diam_pair: tuple
    Diam_multiplicity: int
    Diam_continuum: bool
    diam_pair: tuple
    Rad_center: SurfacePoint
    Rad_antipodes: tuple
    Rad_continuum: bool
    rad_center: SurfacePoint
    rad_farthest: FarthestSet
    cfg: ToleranceConfig
    seed: int | None = None

    def ratios(self):
        """The six pairwise ratios, keyed in fixed order."""
        return {
            "Diam_over_diam": self.Diam / self.diam,
            "Diam_over_Rad": self.Diam / self.Rad,
            "diam_over_rad": self.diam / self.rad,
            "Rad_over_rad": self.Rad / self.rad,
            "rad_over_Diam": self.rad / self.Diam,
            "Rad_over_diam": self.Rad / self.diam,
        }

    def to_json(self):
        return {
            "schema": "tetrametric-report/2",
            "tetrahedron": {
                "vertices": [list(v) for v in self.tetrahedron.vertices],
                "edge_lengths": list(self.tetrahedron.edge_lengths),
            },
            "metrics": {"Diam": self.Diam, "diam": self.diam,
                        "Rad": self.Rad, "rad": self.rad},
            "ratios": self.ratios(),
            "witnesses": {
                "Diam": {
                    "pair": [surface_point_to_json(p)
                             for p in self.Diam_pair],
                    "multiplicity": self.Diam_multiplicity,
                    "continuum": self.Diam_continuum,
                },
                "diam": {"pair": list(self.diam_pair)},
                "Rad": {
                    "center": surface_point_to_json(self.Rad_center),
                    "antipodes": [surface_point_to_json(p)
                                  for p in self.Rad_antipodes],
                    "continuum": self.Rad_continuum,
                },
                "rad": {
                    "center": surface_point_to_json(self.rad_center),
                    "farthest": self.rad_farthest.to_json(),
                },
            },
            "config": {
                "geom_tol": GEOM_TOL,
                "opt_tol": self.cfg.opt_tol,
                "quality_floor": self.cfg.quality_floor,
                "dedup_tol": DEDUP_TOL,
                "seed": self.seed,
            },
        }

    def to_text(self):
        return canonical_json(self.to_json())


def compute_report(T, cfg=DEFAULT_CFG, seed=None):
    """Compute all four size measures of T with witnesses."""
    dia = intrinsic_diameter(T, cfg)
    rad_i = intrinsic_radius(T, cfg)
    dia_e = extrinsic_diameter(T)
    rad_e = extrinsic_radius(T)
    return MetricReport(
        tetrahedron=T,
        Diam=dia.value, diam=dia_e.value,
        Rad=rad_i.value, rad=rad_e.value,
        Diam_pair=dia.pair,
        Diam_multiplicity=dia.multiplicity,
        Diam_continuum=dia.continuum,
        diam_pair=dia_e.pair,
        Rad_center=rad_i.center,
        Rad_antipodes=rad_i.antipodes.points,
        Rad_continuum=rad_i.antipodes.continuum,
        rad_center=rad_e.center,
        rad_farthest=rad_e.farthest,
        cfg=cfg, seed=seed,
    )


# ---------------------------------------------------------------------------
# inequality checks

@dataclass(frozen=True)
class ViolationRecord:
    """One ratio bound broken beyond tolerance (margin < 0 always)."""

    inequality: str
    value: float
    bound: float
    margin: float
    edges: tuple
    seed: int | None

    def to_json(self):
        return {"inequality": self.inequality, "value": self.value,
                "bound": self.bound, "margin": self.margin,
                "edges": list(self.edges), "seed": self.seed}


def _report_fields(report):
    """(ratios, normalized edges, seed) from a MetricReport or parsed JSON.

    A MetricReport's edges are None: its shape was checked when it was
    measured, and only a ViolationRecord reads them, so check_inequalities
    normalizes it when it makes one.
    """
    if isinstance(report, MetricReport):
        return report.ratios(), None, report.seed
    if not isinstance(report, dict) or not all(
            isinstance(report.get(key, {}), dict)
            for key in ("ratios", "tetrahedron", "config")):
        raise ValueError("a report is an object whose ratios, tetrahedron "
                         "and config are objects")
    ratios = {k: float(report["ratios"][k]) for k in RATIO_KEYS}
    # the shape was admitted under its own quality floor, which the report
    # does not record; normalizing needs only well-formed vertices, and
    # normalize itself rejects a flat shape
    verts = report["tetrahedron"]["vertices"]
    edges = normalize(_oriented(verts)[0]).edge_lengths
    return ratios, edges, report.get("config", {}).get("seed")


def report_margins(report):
    """Signed slack of every ratio bound, keyed in fixed order.

    Lower bounds report value - bound, upper bounds report bound - value;
    positive means satisfied with room.  Margins quantify the strict
    inequalities, which hold with no uniform gap over all shapes.
    """
    ratios, _, _ = _report_fields(report)
    out = {}
    for key, rkey, side, bound in BOUNDS:
        value = ratios[rkey]
        out[key] = (value - bound) if side == "lower" else (bound - value)
    return out


def _check_tol(tol):
    """Refuse a tolerance that is not a finite number of at least 0: a
    negative one flags bounds that hold, and NaN flags none."""
    if not 0.0 <= tol < math.inf:
        raise ValueError("the tolerance must be finite and at least 0, "
                         "not %r" % (tol,))


def check_inequalities(report, tol=1e-6):
    """Violations of the ratio bounds beyond tol; empty when all hold.

    The checked bounds are: the geodesic-to-chord diameter ratio in
    [1, 2/sqrt(3)]; both diameter-to-radius ratios in (1, 2]; the geodesic
    radius at most the chord diameter; the geodesic-to-chord radius ratio
    in [1, 2); the chord-radius-to-geodesic-diameter ratio in
    (sqrt(3)/4, 1); and the wide sanity cap Diam/diam <= pi/2.  A tol
    that is negative or not finite is a ValueError.
    """
    _check_tol(tol)
    ratios, edges, seed = _report_fields(report)
    records = []
    for key, rkey, side, bound in BOUNDS:
        value = ratios[rkey]
        margin = (value - bound) if side == "lower" else (bound - value)
        if margin < -tol:
            if edges is None:
                edges = normalize(report.tetrahedron).edge_lengths
            records.append(ViolationRecord(
                inequality=key, value=value, bound=bound, margin=margin,
                edges=tuple(edges), seed=seed))
    return records


# ---------------------------------------------------------------------------
# campaigns

_EDGE_COLS = ("e01", "e02", "e03", "e12", "e13", "e23")
_METRIC_COLS = ("Diam", "diam", "Rad", "rad")
CSV_COLUMNS = (("seed",) + _EDGE_COLS + _METRIC_COLS + RATIO_KEYS
               + tuple(key for key, _, _, _ in BOUNDS))


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one verification campaign over an instance stream."""

    spec: GeneratorSpec
    base_seed: int
    rows: tuple
    extremal: dict
    violations: tuple
    failures: tuple

    def to_csv(self):
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_num(row[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "schema": "tetrametric-campaign/1",
            "generator": spec_to_json(self.spec),
            "base_seed": self.base_seed,
            "instances": len(self.rows),
            "failures": [list(f) for f in self.failures],
            "extremal": self.extremal,
            "violations": [v.to_json() for v in self.violations],
        }


def _campaign_row(spec, base_seed, index, tol):
    rng = instance_stream(base_seed, index)
    T = normalize(generate(spec, seed=rng))
    rep = compute_report(T, seed=index)
    row = {"seed": index}
    for col, length in zip(_EDGE_COLS, T.edge_lengths):
        row[col] = length
    row.update({"Diam": rep.Diam, "diam": rep.diam,
                "Rad": rep.Rad, "rad": rep.rad})
    row.update(rep.ratios())
    row.update(report_margins(rep))
    return row, check_inequalities(rep, tol)


def _failure_text(exc):
    """Failure text of a campaign instance: a TetraError's message, or the
    class name and message of any other exception.
    """
    if isinstance(exc, TetraError):
        return str(exc)
    return "%s: %s" % (type(exc).__name__, exc)


def _threads():
    """The worker count TETRA_THREADS sets, 1 when it is unset.

    The value comes from outside the program, so one that is not an
    integer of at least 1 is refused, not read as 1.
    """
    raw = os.environ.get("TETRA_THREADS")
    if raw is None:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError("TETRA_THREADS must be an integer of at least 1, "
                         "not %r" % raw)
    return threads


def campaign(spec, n, seed, tol=1e-6, threads=None, progress=None):
    """Generate, report, and check n seeded instances of one family.

    Instance i draws from an independent stream keyed by (seed, i), so
    results do not depend on evaluation order or parallelism degree; rows
    and failures come back sorted by instance index, while progress(i)
    fires as each instance settles, in completion order on the pool.  An
    instance that raises is recorded as (index, message) and skipped, never
    fatal; a TetraError keeps its message, any other exception is prefixed
    by its class name.  When every instance fails, extremal is empty.  A
    tol that is negative or not finite is refused before any instance runs.
    """
    if n < 1:
        raise ValueError("instance count must be at least 1")
    _check_tol(tol)
    # a pool forks all its workers at its first submit, so it gets no more
    # than there are instances
    threads = min(_threads() if threads is None else max(1, threads), n)
    results, failures = {}, []

    def run(i):
        return _campaign_row(spec, seed, i, tol)

    settled = set()
    if threads > 1:
        from concurrent.futures import (BrokenExecutor, ProcessPoolExecutor,
                                        as_completed)
        try:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                futures = {pool.submit(_campaign_row, spec, seed, i, tol): i
                           for i in range(n)}
                for fut in as_completed(futures):
                    i = futures[fut]
                    try:
                        results[i] = fut.result()
                    except (OSError, BrokenExecutor):
                        raise  # the pool itself failed, not instance i
                    except Exception as exc:
                        failures.append((i, _failure_text(exc)))
                    settled.add(i)
                    if progress:
                        progress(i)
        except (OSError, BrokenExecutor):
            threads = 1  # pool unavailable; fall through to serial
    if threads == 1:
        # the pool settles instances in completion order, so those it
        # settled before it failed are skipped, not recorded twice
        for i in range(n):
            if i in settled:
                continue
            try:
                results[i] = run(i)
            except Exception as exc:
                failures.append((i, _failure_text(exc)))
            if progress:
                progress(i)

    failures.sort()
    rows, violations = [], []
    for i in sorted(results):
        row, recs = results[i]
        rows.append(row)
        violations.extend(recs)
    extremal = {}
    for key in RATIO_KEYS if rows else ():
        lo = min(rows, key=lambda r: (r[key], r["seed"]))
        hi = max(rows, key=lambda r: (r[key], -r["seed"]))
        extremal[key] = {
            "min": {"seed": lo["seed"], "value": lo[key],
                    "edges": [lo[c] for c in _EDGE_COLS]},
            "max": {"seed": hi["seed"], "value": hi[key],
                    "edges": [hi[c] for c in _EDGE_COLS]},
        }
    return CampaignResult(spec=spec, base_seed=seed, rows=tuple(rows),
                          extremal=extremal, violations=tuple(violations),
                          failures=tuple(failures))


# ---------------------------------------------------------------------------
# extremal-ratio refinement

@dataclass(frozen=True)
class RefinementResult:
    """Derivative-free sharpening of the smallest Diam/Rad ratio.

    Search evidence only: a local minimum of a sampled landscape, not a
    certificate.  distance_to_regular is the canonical-form vertex distance
    between the refined shape and the regular tetrahedron.
    """

    label: str
    start_value: float
    value: float
    tetrahedron: Tetrahedron
    iterations: int
    evaluations: int
    distance_to_regular: float

    def to_json(self):
        return {
            "schema": "tetrametric-refinement/1",
            "label": self.label,
            "start_value": self.start_value,
            "value": self.value,
            "edges": list(self.tetrahedron.edge_lengths),
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "distance_to_regular": self.distance_to_regular,
        }


def _shape_params(N):
    """Free coordinates of a canonical form: vertex 2 (xz) and vertex 3."""
    v2, v3 = N.vertices[2], N.vertices[3]
    return [v2[0], v2[2], v3[0], v3[1], v3[2]]


def _shape_build(params):
    v2x, v2z, v3x, v3y, v3z = params
    verts = [(-0.5, 0.0, 0.0), (0.5, 0.0, 0.0),
             (v2x, 0.0, v2z), (v3x, v3y, v3z)]
    return validate_tetrahedron(verts)


def refine_min_ratio(T_start, iterations=50):
    """Locally minimize Diam/Rad over shape space from a starting instance.

    The canonical form pins the longest edge, leaving five vertex
    coordinates as search variables; invalid or degenerate shapes evaluate
    to a large penalty.  The ratio is similarity-invariant, so no
    renormalization inside the loop is needed.

    The smallest value of this ratio is conjectured to sit at the regular
    shape, so the initial simplex contains both the starting instance and
    the regular shape with small axis offsets around it: the descent then
    simultaneously refines the best sampled instance and probes the
    neighborhood of the conjectured optimum for anything smaller.  The
    result is labeled evidence, never a certificate.
    """
    from scipy.optimize import minimize

    start = normalize(T_start)
    x0 = _shape_params(start)
    reg = _shape_params(normalize(make_regular(1.0)))
    h = 0.01
    simplex = [list(x0)]
    for k in range(len(reg)):
        row = list(reg)
        row[k] += h
        simplex.append(row)
    evals = 0

    def objective(params):
        nonlocal evals
        evals += 1
        try:
            T = _shape_build(params)
            dia = intrinsic_diameter(T).value
            rad = intrinsic_radius(T).value
        except (TetraError, ValueError):
            return 10.0
        return dia / rad

    start_value = objective(x0)
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxiter": iterations, "xatol": 1e-6,
                            "fatol": 1e-10, "initial_simplex": simplex})
    best_params = res.x if res.fun <= start_value else x0
    best_value = min(float(res.fun), start_value)
    refined = normalize(_shape_build(best_params))
    return RefinementResult(
        label="evidence",
        start_value=start_value,
        value=best_value,
        tetrahedron=refined,
        iterations=iterations,
        evaluations=evals,
        distance_to_regular=shape_distance(refined, make_regular(1.0)),
    )
