"""The benchmark's four workloads (why each exists: BENCHMARK.json and
README.md).  All are closed loop — one job at a time, one busy core."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import Keys
from repro.experiments.common import build_app

#: Dataset sizes below are multiplied by this: the issue sized the jobs
#: at 6-8 s each, which does not fit the driver's budget (92 runs in
#: 3420 s), and on this box a run of many short jobs gives a steadier
#: median than a run of few long ones.
SCALE_FACTOR = 0.25

NUM_SPLITS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    config: str  # baseline | combined (build_app's optimization config)
    scale: float  # dataset scale at scale factor 1.0
    #: Only these keys are pinned; every other key stays at the repo
    #: default, so a change of default (e.g. the collector) shows here.
    conf: dict[str, Any] = field(default_factory=dict)

    @property
    def in_process(self) -> bool:
        """Tasks run in this process, so the timing proxies see them."""
        return self.conf.get(Keys.EXEC_BACKEND, "serial") == "serial"

    @property
    def net_shuffle(self) -> bool:
        """Shuffle over real sockets: ``Op.SHUFFLE`` is charged from
        measured time there, so that ledger entry does not repeat."""
        return self.conf.get(Keys.SHUFFLE_MODE, "mem") == "net"

    def build(self, seed: int, scale_factor: float):
        return build_app(
            self.app,
            self.config,
            scale=self.scale * scale_factor,
            num_splits=NUM_SPLITS,
            seed=seed,
            extra_conf=self.conf,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("wc-baseline", "wordcount", "baseline", 1.0),
        Workload(
            "wc-optimized", "wordcount", "combined", 1.0,
            conf={Keys.NODE_COMBINE: True},
        ),
        Workload(
            "sort-net", "distributedsort", "baseline", 12.0,
            conf={Keys.NUM_REDUCERS: 4, Keys.SHUFFLE_MODE: "net"},
        ),
        Workload(
            "wc-cluster1", "wordcount", "baseline", 1.0,
            conf={
                Keys.EXEC_BACKEND: "cluster",
                Keys.EXEC_WORKERS: 1,
                Keys.SHUFFLE_MODE: "net",
            },
        ),
    )
}


def check_oracle(workload: Workload, app, result) -> bool:
    """Does *result*'s output equal the app's naive reference?"""
    expected = app.oracle()
    pairs = result.output_pairs()
    if workload.app == "distributedsort":
        return [key.value for key, _ in pairs] == expected["sorted_keys"]
    return {key.value: value.value for key, value in pairs} == expected
