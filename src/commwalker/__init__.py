"""Agent-based community detection.

Generations of biased walker agents explore the graph and report the nodes
they visited; co-visited pairs accumulate weight. Low-weight edges are then
removed one by one, and the component split with the highest network
modularity is reported as the community structure.
"""

from . import errors
from .analysis import (
    CandidateRecord,
    Split,
    best_partition,
    best_split,
    edge_removal_order,
    sweep,
)
from .bench import BenchReport, TrialOutcome, run_bench
from .exploration import (
    ExplorationConfig,
    ExplorationResult,
    explore,
)
from .graph import (
    Graph,
    Partition,
    connected_components,
    load_edge_list,
    load_gml,
    load_labels,
    to_edge_list,
)
from .scoring import (
    confusion_matrix,
    matched_total,
    modularity,
    partition_accuracy,
)
from .pipeline import DetectionResult, Diagnostics, detect
from .synthetic import planted_partition

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "CandidateRecord",
    "DetectionResult",
    "Diagnostics",
    "ExplorationConfig",
    "ExplorationResult",
    "Graph",
    "Partition",
    "Split",
    "TrialOutcome",
    "best_partition",
    "best_split",
    "confusion_matrix",
    "connected_components",
    "detect",
    "edge_removal_order",
    "errors",
    "explore",
    "load_edge_list",
    "load_gml",
    "load_labels",
    "matched_total",
    "modularity",
    "partition_accuracy",
    "planted_partition",
    "run_bench",
    "sweep",
    "to_edge_list",
]
