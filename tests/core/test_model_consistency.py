"""Cross-validation: the engine's incremental PipelineTimeline and the
closed-form analytic model must agree.

`repro.engine.pipeline.PipelineTimeline` advances per measured spill;
`repro.core.spillmatcher.analysis.evolve_pipeline` evolves the same
recurrence analytically from constant rates.  Feeding the timeline
constant-rate spills of the sizes the recurrence prescribes must
reproduce the analytic waits — proving Figures 9/Table II and the
hypothesis-checked §IV-C theory are measuring the same system.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.spillmatcher.analysis import evolve_pipeline
from repro.engine.pipeline import PipelineTimeline, expected_spill_size

CAPACITY = 1000
TOTAL = 20_000

rates = st.floats(min_value=0.2, max_value=5.0)


def run_engine_timeline(p: float, c: float, x: float):
    """Drive PipelineTimeline exactly as the collector would for
    constant-rate production/consumption."""
    timeline = PipelineTimeline(CAPACITY)
    remaining = TOTAL
    prev_size = None
    while remaining > 0:
        size = expected_spill_size(x, CAPACITY, prev_size, p / c)
        size = min(size, remaining)
        timeline.record_spill(size / p, size / c, size)
        prev_size = size
        remaining -= size
    return timeline.finish()


@settings(max_examples=40, deadline=None)
@given(p=rates, c=rates, x=st.floats(min_value=0.1, max_value=0.95))
def test_engine_matches_analytic_elapsed(p, c, x):
    """Wall-clock agreement over the whole (p, c, x) space.

    When ``p >> c`` with small x, spill sizes oscillate and the shared
    queue-depth-1 approximation lets the two implementations attribute
    the same delay to different buckets (per-spill map blocking vs the
    terminal drain), so only the *total* timeline is compared here; the
    per-bucket comparison below restricts to the stable regime.
    """
    engine = run_engine_timeline(p, c, x)
    analytic = evolve_pipeline(p, c, x, CAPACITY, TOTAL)

    # Busy work is exact by construction.
    assert engine.map_busy == pytest.approx(analytic.map_busy, rel=1e-6)
    assert engine.support_busy == pytest.approx(analytic.support_busy, rel=1e-6)
    assert engine.elapsed == pytest.approx(analytic.elapsed, rel=0.02)


@settings(max_examples=40, deadline=None)
@given(p=rates, c=rates, x=st.floats(min_value=0.1, max_value=0.95))
@example(p=3.0, c=1.0, x=0.826171875)  # tail spill straddles the free space
def test_engine_matches_analytic_waits_stable_regime(p, c, x):
    """Per-bucket wait agreement where spill sizes converge (map not
    faster than support, or x at/above the steady threshold).

    The map thread's wait is compared *including its final join* on the
    support thread, on both sides.  Both models block a producing map
    thread only once spill ``i`` outgrows the free space ``M − m_{i-1}``;
    a spill that just fits hands the same delay on — to the next spill's
    blocking, or, for the tail spill, to the join.  Which side of that
    boundary a spill lands on is decided by its size, and the engine's
    integer sizes differ from the continuous ones by a byte per spill
    (up to ``n`` bytes for the tail, which holds what the others left):
    at ``p=3, c=1, x=0.826171875`` the engine's 176-byte tail exceeds
    its 174 free bytes and blocks 768 s, the analytic 171.875-byte tail
    fits its 173.83 and joins instead (18432 vs 17669 blocked, the same
    18608 with the join).  Blocking-only was therefore never continuous
    in the sizes, so no rounding tolerance could cover it; blocking plus
    join is, and the tolerance below is the one the comparison always had.
    """
    if p > c and x < 0.5:
        # Oscillating-size regime (spill sizes alternate between x*M and
        # (1-x)*M for any x below one half when the map side is faster):
        # covered by the elapsed test above.
        return
    engine = run_engine_timeline(p, c, x)
    steady = evolve_pipeline(p, c, x, CAPACITY, TOTAL)
    # With the first-spill ramp-up (which the engine's support_wait
    # counts) and the final join (its final_drain_wait).
    analytic = evolve_pipeline(p, c, x, CAPACITY, TOTAL, include_ramp_up=True)

    # Size-rounding slack: the engine spills integer bytes while the
    # analytic recurrence is continuous, and a per-spill wait is the
    # *difference* of produce and consume spans (e.g. 2·size − M when
    # blocked on buffer space), so each spill's sub-byte truncation can
    # shift its wait by up to two bytes' worth of time — accumulated
    # over every spill, not amortized.
    tolerance = max(
        2.0 * max(1.0 / p, 1.0 / c) * len(steady.spill_sizes),
        0.03 * (steady.map_wait + steady.support_wait),
    )
    assert engine.map_wait + engine.final_drain_wait == pytest.approx(
        analytic.map_wait, abs=tolerance
    )
    assert engine.support_wait == pytest.approx(analytic.support_wait, abs=tolerance)


def test_wait_free_at_optimum_in_engine():
    """The engine timeline also confirms Eq. (1): at x* the slower
    thread's steady-state wait vanishes."""
    from repro.core.spillmatcher.policy import optimal_spill_percent

    for p, c in ((1.0, 3.0), (3.0, 1.0), (1.0, 1.0), (0.5, 2.5)):
        x_star = optimal_spill_percent(p, c)
        result = run_engine_timeline(p, c, min(x_star, 0.95))
        if result.map_busy >= result.support_busy:
            slower_wait = result.map_wait  # excl. drain, which is separate
        else:
            slower_wait = result.support_wait - result.spills[0].produce_work
        busy = max(result.map_busy, result.support_busy)
        assert slower_wait <= 0.02 * busy, (p, c, x_star)
