"""The curved step by full enumeration of its KKT sets, kept as the reference.

The radius search's curved step (minimax._step with curved set) solves,
for each choice of one piece per node, the Newton KKT systems of the
active sets alone: the pieces tied at the first-order step, their subsets
where that solve fails, and the pieces that tie at the winner
(minimax._curved_minimum).
This module solves it as the package did before: the point where the max
of every set of one to three pieces is stationary with all of them equal
(minimax._kkt_point), kept when its weights are >= 0 and it lies in the
box, next to the same segment and box-side candidates
(minimax._line_minimum on the segment to the first-order step and on
minimax._corner_sides, never skipped).  Its candidates include every candidate of
the active-set step, so its value is never above that step's; the tests
replay recorded steps against it.

    PYTHONPATH=src python tests/curved_reference.py [N]

replays the curved steps of instances 0..N-1 (N = 60) of seeds 42 and 3
and prints how many steps the two solves give the same model value, with
each step where they differ.
"""

import itertools
import sys

from tetrametric import (GeneratorSpec, generate, instance_stream,
                         intrinsic_radius, normalize)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric.minimax import (_corner_sides, _kkt_candidate,
                                 _line_minimum, _step, _values)


def curved_minimum_by_enumeration(pieces, poly, d):
    """minimax._curved_minimum with every set of one to three pieces solved:
    every candidate scored on the model, the first lowest winning.
    Returns (value, step)."""
    cands = [d, _line_minimum(pieces, (0.0, 0.0), d)]
    cands += [_line_minimum(pieces, start, end)
              for start, end in _corner_sides(poly, d)]
    for k in (1, 2, 3):
        for sub in itertools.combinations(pieces, k):
            point = _kkt_candidate(sub, poly)
            if point is not None:
                cands.append(point)
    best = None
    for x, y in cands:
        val = max(_values(pieces, x, y))
        if best is None or val < best[0]:
            best = (val, (x, y))
    return best


def curved_step_by_enumeration(models, poly):
    """minimax._step's curved step with curved_minimum_by_enumeration per
    choice, started from the same first-order step."""
    best = None
    for choice in itertools.product(*models):
        d = _step([[pc] for pc in choice], poly, False)[1]
        res = curved_minimum_by_enumeration(choice, poly, d)
        if best is None or res[0] < best[0]:
            best = res
    return best


def recorded_steps(streams, n):
    """Every curved step (models, poly, result) that intrinsic_radius solves
    on instances 0..n-1 of each stream, in order."""
    steps = []
    solve = intrinsic_mod._step

    def record(models, poly, curved):
        res = solve(models, poly, curved)
        if curved:
            steps.append((models, poly, res))
        return res

    intrinsic_mod._step = record
    try:
        for stream in streams:
            for i in range(n):
                intrinsic_radius(normalize(generate(
                    GeneratorSpec(kind="random"),
                    seed=instance_stream(stream, i))))
    finally:
        intrinsic_mod._step = solve
    return steps


def replay(streams=(42, 3), n=60):
    """(steps, equal, lower, differing) over the recorded curved steps:
    lower counts the steps whose value is below the reference's, which
    must never happen, and differing lists (k, value, reference value)."""
    steps = recorded_steps(streams, n)
    equal = lower = 0
    differing = []
    for k, (models, poly, res) in enumerate(steps):
        want = curved_step_by_enumeration(models, poly)
        if res[0] == want[0]:
            equal += 1
            continue
        lower += res[0] < want[0]
        differing.append((k, res[0], want[0]))
    return len(steps), equal, lower, differing


if __name__ == "__main__":
    steps, equal, lower, differing = replay(
        n=int(sys.argv[1]) if len(sys.argv) > 1 else 60)
    for k, got, want in differing:
        print("step %d: %.17g against %.17g (%+.3e)" % (k, got, want,
                                                        got - want))
    print("%d curved steps, %d with the reference's value, %d below it"
          % (steps, equal, lower))
