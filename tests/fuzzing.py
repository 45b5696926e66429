"""Settings shared by the engine fuzzers.

Each runs derandomized, so its seed reproduces any failure, with no
deadline and no shrink phase: shrinking re-runs the engine on hundreds of
smaller inputs, so one engine regression would stall the suite for
minutes before it reported.  A failure is reported as first generated.
"""

from hypothesis import Phase, settings

ENGINE_FUZZ = settings(deadline=None, derandomize=True,
                       phases=(Phase.explicit, Phase.reuse, Phase.generate,
                               Phase.target))
