"""Output checks applied to every call; a call with any problem counts as
failed."""

from __future__ import annotations

from collections import defaultdict

from .workloads import Case, Output, component_ids

# The reported q and the recomputed one may differ only by float rounding,
# e.g. when communities are summed in another order.
Q_TOLERANCE = 1e-9


def problems(case: Case, out: Output, reference: str | None) -> list[str]:
    """Everything wrong with one call's output. reference is the raw output
    of an earlier call on the same case, or None for the first call."""
    from commwalker import Partition, modularity

    spec = case.spec
    found = []
    if reference is not None and out.raw != reference:
        found.append("output differs from an earlier call with the same input and seed")
    missing = [name for name in spec.names if name not in out.communities]
    if missing or len(out.communities) != len(spec.names):
        found.append(f"{len(missing)} node(s) without a label, or labels for unknown nodes")
        return found

    labels = [out.communities[name] for name in spec.names]
    component = component_ids(len(spec.names), spec.edges)
    members = defaultdict(list)
    for node, label in enumerate(labels):
        members[label].append(node)
    for label, nodes in members.items():
        if len({component[u] for u in nodes}) > 1:
            found.append(f"community {label} spans several input components")
        elif not _connected_within(nodes, spec.edges):
            found.append(f"community {label} does not induce a connected subgraph")

    q = modularity(case.graph, Partition.from_labels(out.communities[n] for n in case.graph.nodes))
    if not abs(out.q - q) <= Q_TOLERANCE:
        found.append(f"reported q {out.q!r} but modularity of the partition is {q!r}")
    if not out.q >= 0:
        found.append(f"reported q {out.q!r} is negative")
    return found


def _connected_within(nodes: list[int], edges: list[tuple[int, int]]) -> bool:
    inside = set(nodes)
    sub = [(u, v) for u, v in edges if u in inside and v in inside]
    index = {u: i for i, u in enumerate(nodes)}
    ids = component_ids(len(nodes), [(index[u], index[v]) for u, v in sub])
    return max(ids) == 0
