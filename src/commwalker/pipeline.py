"""End-to-end detection: explore, cut weak edges, keep the best split.

Walkers can never cross components, and the visit-count stop rule would
never fire on the full graph, so every connected component is explored and
split on its own. One explore() call finds the components and runs them
all in one generation loop over the whole graph, each with its own stop
rule. Each component is then swept on its induced subgraph, whose edge ids
map its weights back to the component's entries of the weight array. A
connected input is the one-component case: its only component is the graph
itself, used as is.
Community labels are offset so components do not collide, and the reported
modularity is always recomputed on the loaded graph. Per-component
diagnostics are reported only when there is more than one component.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .analysis import best_split, sweep
from .errors import NoEdgesError
from .exploration import ExplorationConfig, explore
from .graph import Graph, Partition, induced_subgraph
from .modularity import modularity


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


def detect(
    g: Graph,
    *,
    seed: int = 0,
    agent_count: int | None = None,
    memory_size: int | None = None,
    hub_fraction: float = 0.75,
    max_generations: int = 1000,
) -> DetectionResult:
    """Detect the community structure of g.

    Unset parameters default from the size of the loaded graph (not of the
    individual components). Fixed (graph, parameters, seed) gives identical
    results on every run.
    """
    if g.edge_count == 0:
        raise NoEdgesError("community detection needs at least one edge")
    cfg = ExplorationConfig.for_graph(
        g,
        agent_count=agent_count,
        memory_size=memory_size,
        hub_fraction=hub_fraction,
        max_generations=max_generations,
        seed=seed,
    )
    result = explore(g, cfg)
    labels: list[int] = [-1] * g.node_count
    offset = 0
    details = []
    removed = 0
    for c, comp in enumerate(result.components.members()):
        if len(comp) == 1:
            labels[comp[0]] = offset
            offset += 1
            details.append(ComponentDetail(1, 0, 0, 0, 0, False, 1))
            continue
        sub, orig_ids, edge_ids = induced_subgraph(g, comp)
        weights = result.weights[edge_ids]
        split = best_split(sub, weights, sweep(sub, weights))
        for sub_id, orig_id in enumerate(orig_ids):
            labels[orig_id] = offset + split.partition.community_of[sub_id]
        offset += split.partition.community_count
        removed += split.removed_edge_count
        details.append(
            ComponentDetail(
                node_count=sub.node_count,
                edge_count=sub.edge_count,
                generations_run=result.component_generations[c],
                total_hops=sum(result.hits[v] for v in comp),
                removed_edges_at_best=split.removed_edge_count,
                cap_hit=result.component_cap_hit[c],
                community_count=split.partition.community_count,
            )
        )
    partition = Partition(community_of=labels, community_count=offset)
    q = modularity(g, partition)
    diagnostics = Diagnostics(
        generations_run=result.generations_run,
        total_hops=result.total_hops,
        removed_edges_at_best=removed,
        cap_hit=result.cap_hit,
        seed=cfg.seed,
        agent_count=cfg.agent_count,
        memory_size=cfg.memory_size,
        components=tuple(details) if len(details) > 1 else None,
    )

    communities = {name: partition.community_of[i] for i, name in enumerate(g.nodes)}
    return DetectionResult(communities=communities, q=q, partition=partition, diagnostics=diagnostics)
