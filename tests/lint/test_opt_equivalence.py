"""Apply mode is invisible in the bytes: opt-on == opt-off digests.

The whole legitimacy of the static optimizer rests on this file — every
rewrite must be provably output-preserving across the execution
backends and shuffle transports, while the counters prove the rewrite
actually did something (records skipped, bytes blanked, combine ran).
"""

from __future__ import annotations

import pytest

from repro.apps.base import make_conf
from repro.apps.registry import build_application
from repro.config import Keys
from repro.engine.counters import Counter
from repro.engine.inputformat import TextInput
from repro.engine.job import JobSpec
from repro.engine.runner import LocalJobRunner
from repro.lint.opt import OPT_PROJECT, OPT_SELECT, OPT_SYNTH
from repro.serde.text import Text

from .test_opt_rules import FieldThreeReducer, WholeLineMapper

BACKENDS = ("serial", "thread", "cluster")
OPT_APPS = ("selection", "accesslogip", "accesslogsum")


def run_app(name: str, mode: str, backend: str = "serial", shuffle: str = "mem"):
    app = build_application(name, scale=0.01, conf_overrides={
        Keys.LINT_OPT_MODE: mode,
        Keys.EXEC_BACKEND: backend,
        Keys.EXEC_WORKERS: 2,
        Keys.SHUFFLE_MODE: shuffle,
    })
    return LocalJobRunner().run(app.job)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", OPT_APPS)
def test_apply_mode_is_byte_identical(name, backend):
    baseline = run_app(name, "off", backend)
    optimized = run_app(name, "apply", backend)
    assert optimized.output_digest() == baseline.output_digest()


def test_apply_mode_is_byte_identical_over_net_shuffle():
    baseline = run_app("accesslogip", "off", "thread", shuffle="net")
    optimized = run_app("accesslogip", "apply", "thread", shuffle="net")
    assert optimized.output_digest() == baseline.output_digest()


def test_selection_pushdown_actually_skips_records():
    result = run_app("selection", "apply")
    skipped = result.counters.get(Counter.OPT_SELECT_SKIPPED)
    assert skipped > 0
    # Skipped records never reached the mapper.
    assert result.counters.get(Counter.MAP_INPUT_RECORDS) < \
        run_app("selection", "off").counters.get(Counter.MAP_INPUT_RECORDS)
    plan = result.lint_report.plan
    assert {d.optimization for d in plan.applied} == {OPT_SELECT}


def test_synthesized_combiner_actually_combines():
    result = run_app("accesslogip", "apply")
    assert result.counters.get(Counter.COMBINE_INPUT_RECORDS) > 0
    plan = result.lint_report.plan
    assert {d.optimization for d in plan.applied} == {OPT_SELECT, OPT_SYNTH}
    # The no-combiner baseline combined nothing.
    baseline = run_app("accesslogip", "off")
    assert baseline.counters.get(Counter.COMBINE_INPUT_RECORDS) == 0


def test_advise_mode_changes_nothing_but_reports_the_plan():
    baseline = run_app("selection", "off")
    advised = run_app("selection", "advise")
    assert advised.output_digest() == baseline.output_digest()
    assert advised.counters.get(Counter.OPT_SELECT_SKIPPED) == 0
    assert advised.lint_report.plan is not None
    assert advised.lint_report.plan.proposals  # advised, never applied
    assert not advised.lint_report.plan.applied


# ----------------------------------------------------------------------
# projection pruning end to end (purpose-built: no registered app both
# ships whole delimited lines AND lacks a combiner)
# ----------------------------------------------------------------------
def _visits_job(mode: str) -> JobSpec:
    from repro.data.accesslog import AccessLogSpec, generate_user_visits

    data = generate_user_visits(AccessLogSpec(seed=3).scaled(0.01))
    return JobSpec(
        name="projsum",
        input_format=TextInput(data, split_size=max(1, len(data) // 3),
                               path="uservisits.dat"),
        mapper_factory=WholeLineMapper,
        reducer_factory=FieldThreeReducer,
        combiner_factory=None,
        map_output_key_cls=Text,
        map_output_value_cls=Text,
        conf=make_conf({Keys.LINT_OPT_MODE: mode}),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_projection_pruning_is_byte_identical(backend):
    def run(mode):
        job = _visits_job(mode)
        job.conf.set(Keys.EXEC_BACKEND, backend)
        job.conf.set(Keys.EXEC_WORKERS, 2)
        return LocalJobRunner().run(job)

    baseline = run("off")
    optimized = run("apply")
    assert optimized.output_digest() == baseline.output_digest()
    saved = optimized.counters.get(Counter.OPT_PROJ_BYTES_SAVED)
    assert saved > 0  # dead fields really were blanked before serde
    assert OPT_PROJECT in {d.optimization
                           for d in optimized.lint_report.plan.applied}
    assert baseline.counters.get(Counter.OPT_PROJ_BYTES_SAVED) == 0
    # Fewer intermediate bytes crossed the shuffle.
    assert optimized.counters.get(Counter.MAP_OUTPUT_BYTES) < \
        baseline.counters.get(Counter.MAP_OUTPUT_BYTES)


def test_projection_and_selection_survive_cluster_pickling():
    # The rewritten job crosses a fork/pickle boundary whole: predicate
    # (by source), projection (frozen dataclass), synthesized combiner
    # (frozen factory) — accesslogip covers combiner above; this covers
    # the projection artifact explicitly.
    job = _visits_job("apply")
    job.conf.set(Keys.EXEC_BACKEND, "cluster")
    job.conf.set(Keys.EXEC_WORKERS, 2)
    result = LocalJobRunner().run(job)
    assert result.counters.get(Counter.OPT_PROJ_BYTES_SAVED) > 0
