#!/usr/bin/env python3
"""Two-level root cause localization plus the maintenance decision.

Injects a CPU hog into the db of a web -> app -> db chain. The fault
propagates upward through the service couplings, so every tier looks
anomalous; level 1 keeps the deepest anomalous service (db), level 2 keeps
db's anomalous metrics with no anomalous parent in the learned CPDAG, and
the cheapest applicable recovery action is emitted as the XML message the
maintenance side consumes.
"""

import numpy as np

from availkit.causal import PCConfig
from availkit.entropy import EntropyConfig
from availkit.faultsim import FaultKind, simulate_frames
from availkit.maintenance import decide_action, default_policy, serialize_action_xml
from availkit.model import MetricSeries
from availkit.pipeline import DiagnosisSettings, diagnose
from availkit.rootcause import AnomalyConfig
from availkit.scenarios import WEB, three_tier_with_fault

spec = three_tier_with_fault(FaultKind.cpu_hog, seed=1)
frames = simulate_frames(spec)
series = {
    key: MetricSeries(key, np.arange(frames.values.shape[0]) * spec.tick_ms, frames.values[:, g])
    for g, key in enumerate(frames.columns)
}
print(f"injected: {spec.faults[0].kind.value} on "
      f"{spec.faults[0].target[0].label()}/{spec.faults[0].target[1]} "
      f"(ticks {spec.faults[0].start_tick}..{spec.faults[0].end_tick})")

diag = diagnose(
    series,
    spec.topology,
    entry=WEB,
    econf=EntropyConfig(alarm_threshold=10.0),
    pconf=PCConfig(alpha=0.01),
    aconf=AnomalyConfig(z_threshold=5.0),
    settings=DiagnosisSettings(baseline_n=1200, window_n=600, pc_row_stride=5, theta=10.0),
    produced_at_ms=0,
)

print(f"\nanomalous services: {sorted(n.label() for n in diag.anomalous_services)}")
print("ranked causes:")
for rank, (node, metric, score) in enumerate(diag.ranked_causes, start=1):
    print(f"  {rank}. {node.label():18s} {metric:18s} z={score:.1f}")
for line in diag.evidence:
    print(f"     {line}")

action = decide_action(diag, default_policy(), action_id="act-1",
                       issued_at_ms=1714000000000, cycle_s=300)
print("\nminimum-cost recovery message:")
print(serialize_action_xml(action), end="")
