"""The paper's primary contribution, end to end.

:class:`repro.core.flow.HdfTestFlow` implements the complete test flow of
Fig. 4 as a staged pipeline (:mod:`repro.core.pipeline` /
:mod:`repro.core.stages`): topological analysis, timing-accurate fault
simulation, detection range analysis with programmable monitors, target
fault identification and ILP-based test schedule optimization, with
per-stage artifact caching / resumable runs.
"""

from repro.core.config import FlowConfig
from repro.core.flow import HdfTestFlow
from repro.core.pipeline import DEFAULT_PIPELINE, Pipeline
from repro.core.results import FlowResult
from repro.core.stages import DEFAULT_STAGES, Stage, StageContext

__all__ = [
    "DEFAULT_PIPELINE", "DEFAULT_STAGES", "FlowConfig", "FlowResult",
    "HdfTestFlow", "Pipeline", "Stage", "StageContext",
]
