"""Application registry: the paper's six benchmarks by name."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .accesslog import build_accesslogjoin, build_accesslogsum
from .base import AppJob
from .invertedindex import build_invertedindex
from .pagerank import build_pagerank
from .wordcount import build_wordcount
from .wordpostag import build_wordpostag

Builder = Callable[..., AppJob]


@dataclass(frozen=True)
class AppEntry:
    """Registry metadata for one benchmark application."""

    name: str
    builder: Builder
    text_centric: bool
    description: str


REGISTRY: dict[str, AppEntry] = {
    "wordcount": AppEntry(
        "wordcount", build_wordcount, True,
        "word occurrence counts over a Zipf text corpus",
    ),
    "invertedindex": AppEntry(
        "invertedindex", build_invertedindex, True,
        "posting lists (word -> positions) over a Zipf text corpus",
    ),
    "wordpostag": AppEntry(
        "wordpostag", build_wordpostag, True,
        "per-word POS statistics via HMM Viterbi tagging (CPU-heavy map)",
    ),
    "accesslogsum": AppEntry(
        "accesslogsum", build_accesslogsum, False,
        "SELECT destURL, sum(adRevenue) GROUP BY destURL",
    ),
    "accesslogjoin": AppEntry(
        "accesslogjoin", build_accesslogjoin, False,
        "repartition join of UserVisits with Rankings",
    ),
    "pagerank": AppEntry(
        "pagerank", build_pagerank, False,
        "one PageRank iteration over a Zipf web graph",
    ),
}

APP_NAMES: tuple[str, ...] = tuple(REGISTRY)
"""The paper's six benchmark applications (what the experiments iterate)."""

TEXT_CENTRIC_APPS: tuple[str, ...] = tuple(
    name for name, entry in REGISTRY.items() if entry.text_centric
)

# Extra workloads beyond the paper's suite (see repro.apps.extras);
# registered for the CLI and tests but excluded from APP_NAMES so the
# reproduced tables keep exactly the paper's rows.
from .extras import build_accesslogip, build_distributedsort, build_selection  # noqa: E402

EXTRA_REGISTRY: dict[str, AppEntry] = {
    "selection": AppEntry(
        "selection", build_selection, False,
        "Pavlo et al. selection: SELECT pageURL, pageRank WHERE pageRank > X",
    ),
    "distributedsort": AppEntry(
        "distributedsort", build_distributedsort, False,
        "TeraSort-shaped total ordering with a range partitioner",
    ),
    "accesslogip": AppEntry(
        "accesslogip", build_accesslogip, False,
        "visits per sourceIP, no combiner — a proven int-sum reducer",
    ),
}

EXTRA_APP_NAMES: tuple[str, ...] = tuple(EXTRA_REGISTRY)

# Lint fixtures: deliberately rule-violating jobs kept out of the
# benchmark registries (they exist to be *rejected* by `repro lint`,
# never measured), but reachable by name so the CLI can demo findings.
from .unsafe import build_unsafewordcount  # noqa: E402

FIXTURE_REGISTRY: dict[str, AppEntry] = {
    "unsafewordcount": AppEntry(
        "unsafewordcount", build_unsafewordcount, True,
        "WordCount variant violating every lint rule (analyzer fixture)",
    ),
}


def build_application(
    name: str,
    scale: float = 0.1,
    conf_overrides: Mapping[str, Any] | None = None,
    include_fixtures: bool = False,
    **kwargs: Any,
) -> AppJob:
    """Build a registered application's job at the given dataset scale.

    Lint fixtures (:data:`FIXTURE_REGISTRY`) are deliberately broken
    jobs; they resolve only under ``include_fixtures=True`` — the lint
    CLI's escape hatch — so ``repro run``, experiments, and benchmarks
    can never execute one as an ordinary app by name.
    """
    entry = REGISTRY.get(name) or EXTRA_REGISTRY.get(name)
    if entry is None and include_fixtures:
        entry = FIXTURE_REGISTRY.get(name)
    if entry is None:
        known = sorted(REGISTRY) + sorted(EXTRA_REGISTRY)
        if include_fixtures:
            known += sorted(FIXTURE_REGISTRY)
        hint = (
            " (a lint fixture; pass include_fixtures=True to analyze it)"
            if name in FIXTURE_REGISTRY
            else ""
        )
        raise KeyError(f"unknown application {name!r}{hint}; have {known}")
    return entry.builder(scale=scale, conf_overrides=conf_overrides, **kwargs)
