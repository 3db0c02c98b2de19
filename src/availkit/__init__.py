"""availkit: runtime availability analysis for service deployments.

Multi-scale entropy health scoring, PC-based metric dependency graphs,
two-level root cause localization, MTTF/MTTR statistics, minimum-cost
maintenance decisions, a metric ingestion pipeline, an extensible method
bus, an HTTP control API with CLI, and a fault-injecting simulator for
evaluation.
"""

from .availability import (
    AvailabilityReport,
    Forecast,
    UpDownEvent,
    availability,
    forecast_failure_time,
    mttf,
    mttr,
)
from .bus import InputKind, MethodBus, MethodDescriptor, ParamSpec
from .causal import (
    PCConfig,
    correlation_matrix,
    fisher_z_test,
    learn_metric_graph,
    meek_closure,
    orient_v_structures,
    partial_correlation,
    pc_skeleton,
)
from .entropy import (
    EntropyConfig,
    HealthReport,
    SampEnResult,
    coarse_grain,
    health_score,
    mse_curve,
    sample_entropy,
)
from .ingest import (
    IngestConfig,
    MetricStore,
    load_metrics_file,
    parse_metric_line,
    serialize_metric_line,
)
from .maintenance import (
    ActionKind,
    MaintenanceAction,
    MaintenanceLoop,
    MaintenancePolicy,
    decide_action,
    default_policy,
    parse_action_xml,
    serialize_action_xml,
)
from .model import (
    MetricDependencyGraph,
    MetricKey,
    MetricMatrix,
    MetricSample,
    MetricSeries,
    ServiceDependencyGraph,
    ServiceNode,
    align,
    validate_topology,
)
from .pipeline import DiagnosisSettings, diagnose
from .rootcause import (
    AnomalyConfig,
    Diagnosis,
    cusum_change,
    localize,
    service_anomaly,
    zscore_anomaly,
)

__version__ = "0.1.0"
