"""stepforge: step counting and survival analysis for raw wrist accelerometry."""

from .model import (
    AnalysisConfig,
    DaySummary,
    MinuteTable,
    MortalityRecord,
    SubjectCovariates,
    SubjectSummary,
    TriaxialRecording,
    WearState,
    make_config,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "DaySummary",
    "MinuteTable",
    "MortalityRecord",
    "SubjectCovariates",
    "SubjectSummary",
    "TriaxialRecording",
    "WearState",
    "make_config",
    "__version__",
]
