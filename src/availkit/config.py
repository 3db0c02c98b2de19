"""Engine configuration file: one JSON document holding every knob.

Every section is optional; omitted sections fall back to the defaults
declared on the corresponding config dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .causal import PCConfig
from .entropy import EntropyConfig
from .errors import MalformedRecord
from .ingest import IngestConfig
from .maintenance import ActionKind, MaintenancePolicy, check_cycle_s, default_policy
from .model import ServiceNode, read_json
from .pipeline import DiagnosisSettings
from .rootcause import AnomalyConfig


@dataclass
class EngineConfig:
    ingest: IngestConfig = field(default_factory=IngestConfig)
    entropy: EntropyConfig = field(default_factory=EntropyConfig)
    pc: PCConfig = field(default_factory=PCConfig)
    anomaly: AnomalyConfig = field(default_factory=AnomalyConfig)
    policy: MaintenancePolicy = field(default_factory=default_policy)
    diagnosis: DiagnosisSettings = field(default_factory=DiagnosisSettings)
    topology_path: str | None = None
    events_path: str | None = None
    entry: ServiceNode | None = None
    maintenance_cycle_s: int = 300


def _policy_from_dict(doc: dict) -> MaintenancePolicy:
    base = default_policy()
    costs = dict(base.costs)
    for name, cost in doc.get("costs", {}).items():
        costs[ActionKind(name)] = float(cost)
    applicability = {cat: set(kinds) for cat, kinds in base.applicability.items()}
    for cat, kinds in doc.get("applicability", {}).items():
        applicability[cat] = {ActionKind(k) for k in kinds}
    rules = [tuple(rule) for rule in doc.get("category_rules", [])] or list(base.category_rules)
    return MaintenancePolicy(costs=costs, applicability=applicability, category_rules=rules)


def load_config(path) -> EngineConfig:
    return config_from_dict(read_json(path), base_dir=Path(path).parent)


def config_from_dict(doc: dict, base_dir: Path | None = None) -> EngineConfig:
    """Build an EngineConfig; a malformed section raises MalformedRecord naming it."""
    if not isinstance(doc, dict):
        raise MalformedRecord(f"config must be a JSON object, got {type(doc).__name__}")

    def resolve(p):
        if p is None:
            return None
        path = Path(p)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return str(path)

    def section(name: str, build, default=None):
        try:
            return build(doc.get(name, default))
        except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
            raise MalformedRecord(f"config section {name!r}: {exc}") from exc

    return EngineConfig(
        ingest=section("ingest", lambda d: IngestConfig(**d), {}),
        entropy=section("entropy", lambda d: EntropyConfig(**d), {}),
        pc=section("pc", lambda d: PCConfig(**d), {}),
        anomaly=section("anomaly", lambda d: AnomalyConfig(**d), {}),
        policy=section("policy", _policy_from_dict, {}),
        diagnosis=section("diagnosis", lambda d: DiagnosisSettings(**d), {}),
        topology_path=section("topology_path", resolve),
        events_path=section("events_path", resolve),
        entry=section("entry", lambda d: ServiceNode(str(d["ip"]), str(d["service"])) if d else None),
        maintenance_cycle_s=section("maintenance_cycle_s", check_cycle_s, 300),
    )
