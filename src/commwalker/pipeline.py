"""End-to-end detection: explore, cut weak edges, keep the best split.

Walkers can never cross components, and the visit-count stop rule would
never fire on the full graph, so every connected component is explored and
split on its own. The graph finds its components once (Graph.components),
and every phase reads them in that order. One explore() call runs them all
in one generation loop over the whole graph, each with its own stop rule.
One sweep() over the whole graph then scores every component's candidates
on their own, and one best_split() cuts each component at its best
candidate, numbers the communities component by component and scores the
whole partition on the loaded graph. A connected input is the
one-component case. Per-component diagnostics, read from the winners
best_split() returns, are reported only when there is more than one
component.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .analysis import best_split, sweep
from .errors import NoEdgesError
from .exploration import ExplorationConfig, explore
from .graph import Graph, Partition


@dataclass(frozen=True)
class ComponentDetail:
    """Diagnostics for one connected component of a disconnected input."""

    node_count: int
    edge_count: int
    generations_run: int
    total_hops: int
    removed_edges_at_best: int
    cap_hit: bool
    community_count: int


@dataclass(frozen=True)
class Diagnostics:
    generations_run: int
    total_hops: int
    removed_edges_at_best: int
    cap_hit: bool
    seed: int
    agent_count: int
    memory_size: int
    components: tuple[ComponentDetail, ...] | None = None


@dataclass(frozen=True)
class DetectionResult:
    """Detected community structure plus per-run diagnostics.

    communities maps every external node name to its community label;
    q is the modularity of that assignment on the input graph.
    """

    communities: dict[str, int]
    q: float
    partition: Partition
    diagnostics: Diagnostics

    def to_json_dict(self) -> dict:
        diag = asdict(self.diagnostics)
        if diag["components"] is None:
            del diag["components"]
        return {"communities": self.communities, "q": self.q, "diagnostics": diag}


def detect(g: Graph, **params) -> DetectionResult:
    """Detect the community structure of g.

    params are ExplorationConfig fields by name: agent_count, memory_size,
    max_generations and seed. Unset ones take the defaults of
    ExplorationConfig.for_size, for the size of the loaded graph (not of
    the individual components). An unknown name raises TypeError and a bad
    value ConfigInvalidError, on any graph. Fixed (graph, parameters, seed)
    gives identical results on every run.
    """
    cfg = ExplorationConfig.for_size(g.node_count, g.edge_count, **params)
    if g.edge_count == 0:
        raise NoEdgesError("community detection needs at least one edge")
    result = explore(g, cfg)
    candidates = sweep(g, result.weights)
    split = best_split(g, candidates)
    details = []
    members_of = g.components.members()
    for c, (records, best, members) in enumerate(zip(candidates, split.winners, members_of)):
        details.append(
            ComponentDetail(
                node_count=len(members),
                edge_count=records[-1].removed_edge_count,  # the last candidate cuts every edge
                generations_run=result.component_generations[c],
                total_hops=sum(result.hits[v] for v in members),
                removed_edges_at_best=best.removed_edge_count,
                cap_hit=result.component_cap_hit[c],
                community_count=best.community_count,
            )
        )
    diagnostics = Diagnostics(
        generations_run=result.generations_run,
        total_hops=result.total_hops,
        removed_edges_at_best=split.removed_edge_count,
        cap_hit=result.cap_hit,
        seed=cfg.seed,
        agent_count=cfg.agent_count,
        memory_size=cfg.memory_size,
        components=tuple(details) if len(details) > 1 else None,
    )

    communities = {name: split.partition.community_of[i] for i, name in enumerate(g.nodes)}
    return DetectionResult(
        communities=communities, q=split.q, partition=split.partition, diagnostics=diagnostics
    )
