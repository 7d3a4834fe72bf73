"""End-to-end simulation: source -> encoder -> channel -> decoder -> metrics.

:func:`repro.sim.pipeline.simulate` wires the whole Figure-1 system
together and returns a :class:`repro.sim.pipeline.SimulationResult` with
everything the paper's figures plot; :mod:`repro.sim.runner` runs
declarative job grids (schemes x channels x seeds) through one dispatch
loop (in-process or on a process pool) with on-disk result caching and
encode sharing; :mod:`repro.sim.experiment` matches operating points
(``Intra_Th`` calibration, matched-bitrate specs) and replicates one
experiment over channel seeds; :mod:`repro.sim.report` prints
figure-shaped tables.
"""

from repro.sim.pipeline import (
    EncodedStream,
    SimulationConfig,
    SimulationResult,
    FrameRecord,
    StreamFrame,
    simulate,
    encode_phase,
    transmit_phase,
)
from repro.sim.experiment import (
    CalibrationResult,
    RateMatchSpec,
    ReplicationSummary,
    replicate,
    calibrate_intra_th,
)
from repro.sim.runner import (
    EncodedStreamCache,
    JobFailure,
    JobResult,
    JobSpec,
    ResultCache,
    build_grid,
    encode_content_hash,
    encode_stream_key,
    run_grid,
    run_job,
    stable_hash,
)
from repro.sim.report import format_table, format_series, format_csv

__all__ = [
    "JobSpec",
    "JobResult",
    "JobFailure",
    "ResultCache",
    "EncodedStreamCache",
    "build_grid",
    "encode_content_hash",
    "encode_stream_key",
    "run_grid",
    "run_job",
    "stable_hash",
    "SimulationConfig",
    "SimulationResult",
    "FrameRecord",
    "EncodedStream",
    "StreamFrame",
    "simulate",
    "encode_phase",
    "transmit_phase",
    "CalibrationResult",
    "RateMatchSpec",
    "calibrate_intra_th",
    "ReplicationSummary",
    "replicate",
    "format_table",
    "format_series",
    "format_csv",
]
