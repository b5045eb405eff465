"""The MapReduce engine: a faithful, fully instrumented re-implementation
of the Hadoop map/shuffle/reduce pipeline in Python.

Key entry points::

    from repro.engine import (
        Mapper, Reducer, Combiner, JobSpec, LocalJobRunner,
        TextInput, Ledger, Op, Phase,
    )
"""

from .api import (
    Combiner,
    Emitter,
    FnCombiner,
    FnMapper,
    FnReducer,
    HashPartitioner,
    Mapper,
    Partitioner,
    Reducer,
)
from .binarybuffer import RECORD_METADATA_BYTES
from .collector import MapOutputCollector, StandardCollector
from .combiner import CombinerRunner
from .costmodel import DEFAULT_COST_MODEL, CostModel, UserCodeCosts
from .counters import Counter, Counters
from .inputformat import InputFormat, RecordListInput, TextInput
from .instrumentation import (
    MAP_THREAD_OPS,
    OP_PHASE,
    SUPPORT_THREAD_OPS,
    USER_OPS,
    Ledger,
    Op,
    Phase,
    TaskInstruments,
)
from .job import JobSpec
from .maptask import MapTaskResult, MapTaskRunner
from .pipeline import PipelineResult, PipelineTimeline, expected_spill_size
from .reducetask import ReduceTaskResult, ReduceTaskRunner
from .runner import JobResult, LocalJobRunner, build_collector, build_spill_policy
from .shuffle import ShuffleService
from .spillpolicy import SpillPolicy, StaticSpillPolicy

__all__ = [
    "Combiner",
    "CombinerRunner",
    "CostModel",
    "Counter",
    "Counters",
    "DEFAULT_COST_MODEL",
    "Emitter",
    "FnCombiner",
    "FnMapper",
    "FnReducer",
    "HashPartitioner",
    "InputFormat",
    "JobResult",
    "JobSpec",
    "Ledger",
    "LocalJobRunner",
    "MAP_THREAD_OPS",
    "MapOutputCollector",
    "MapTaskResult",
    "MapTaskRunner",
    "Mapper",
    "OP_PHASE",
    "Op",
    "Partitioner",
    "Phase",
    "PipelineResult",
    "PipelineTimeline",
    "RECORD_METADATA_BYTES",
    "RecordListInput",
    "ReduceTaskResult",
    "ReduceTaskRunner",
    "Reducer",
    "ShuffleService",
    "SpillPolicy",
    "StandardCollector",
    "StaticSpillPolicy",
    "SUPPORT_THREAD_OPS",
    "TaskInstruments",
    "TextInput",
    "USER_OPS",
    "UserCodeCosts",
    "build_collector",
    "build_spill_policy",
    "expected_spill_size",
]
