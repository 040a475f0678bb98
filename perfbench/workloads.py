"""Workload inputs for the benchmark, each made from the workload seed.

The benchmark writes every generated graph as GML text (GML, unlike an
edge list, can carry an isolated node and the planted label of each node)
and hands the program only that text. The benchmark keeps its own copy of
names, edges and truth, so its output checks do not depend on how the
program stores a graph.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from dataclasses import dataclass, field
from importlib.resources import files
from typing import Callable


@dataclass
class Spec:
    """A generated graph as the benchmark sees it: names, edges, truth."""

    names: list[str] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    truth: list[int] = field(default_factory=list)

    def add_node(self, block: int) -> int:
        self.names.append(str(len(self.names)))
        self.truth.append(block)
        return len(self.names) - 1

    def to_gml(self) -> str:
        lines = ["graph ["]
        lines += [
            f'  node [ id {i} label "{name}" value {block} ]'
            for i, (name, block) in enumerate(zip(self.names, self.truth))
        ]
        lines += [f"  edge [ source {u} target {v} ]" for u, v in self.edges]
        lines.append("]")
        return "\n".join(lines) + "\n"


def _planted_component(spec: Spec, rng: random.Random, blocks: int, size: int,
                       p_in: float, p_out: float, first_block: int, tree: bool) -> None:
    """Append one planted component. With tree=True every block first gets a
    random recursive tree (plus one edge between consecutive blocks), so the
    component is connected by construction and has degree-1 leaves."""
    nodes = [[spec.add_node(first_block + b) for _ in range(size)] for b in range(blocks)]
    pairs: set[tuple[int, int]] = set()
    if tree:
        for members in nodes:
            for i in range(1, size):
                pairs.add((members[rng.randrange(i)], members[i]))
        for b in range(1, blocks):
            pairs.add((nodes[b - 1][rng.randrange(size)], nodes[b][rng.randrange(size)]))
    flat = [(u, b) for b, members in enumerate(nodes) for u in members]
    for i, (u, bu) in enumerate(flat):
        for v, bv in flat[i + 1:]:
            if rng.random() < (p_in if bu == bv else p_out):
                pairs.add((u, v))
    spec.edges.extend(sorted(pairs))


def component_ids(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Connected-component id of every node, ids in order of lowest node."""
    parent = list(range(n))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in edges:
        parent[find(u)] = find(v)
    ids: dict[int, int] = {}
    return [ids.setdefault(find(u), len(ids)) for u in range(n)]


def dense_sweep_graph(rng: random.Random, blocks: int = 2, size: int = 80,
                      p_in: float = 0.7, p_out: float = 0.02) -> Spec:
    """Connected planted partition; redraws (from the same stream) until connected."""
    while True:
        spec = Spec()
        _planted_component(spec, rng, blocks, size, p_in, p_out, 0, tree=False)
        if max(component_ids(len(spec.names), spec.edges)) == 0:
            return spec


def components_graph(rng: random.Random, sparse: int = 2, size: int = 16,
                     p_in: float = 0.3, p_out: float = 0.02,
                     cliques: int = 9, clique_size: int = 4) -> Spec:
    """Disconnected, degree-skewed graph: `sparse` sparse planted components
    of 2 blocks, one hub joined to every node of `cliques` disjoint cliques,
    and one isolated node. Every clique, and the hub, is a truth block."""
    spec = Spec()
    for c in range(sparse):
        _planted_component(spec, rng, 2, size, p_in, p_out, 2 * c, tree=True)
    block = 2 * sparse
    hub = spec.add_node(block)
    for c in range(cliques):
        members = [spec.add_node(block + 1 + c) for _ in range(clique_size)]
        spec.edges.extend((hub, u) for u in members)
        spec.edges.extend((u, v) for i, u in enumerate(members) for v in members[i + 1:])
    spec.add_node(block + 1 + cliques)  # the isolated node
    degree = [0] * len(spec.names)
    for u, v in spec.edges:
        degree[u] += 1
        degree[v] += 1
    if degree[hub] < 5 * statistics.median(degree):
        raise ValueError("hub degree is below 5x the median degree")
    return spec


def karate_spec() -> Spec:
    """The packaged karate club and its two factions, read by the
    benchmark's own parser."""
    data = files("commwalker") / "data"
    spec = Spec()
    ids: dict[str, int] = {}
    for line in (data / "karate.edges").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            u, v = (ids.setdefault(name, len(ids)) for name in line.split())
            spec.edges.append((u, v))
    spec.names = list(ids)
    factions = {}
    for line in (data / "karate_truth.labels").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, label = line.split()
            factions[name] = int(label)
    spec.truth = [factions[name] for name in spec.names]
    return spec


@dataclass(frozen=True)
class Case:
    """One call: the input as the program parsed it, plus the detect seed."""

    spec: Spec
    graph: object
    seed: int


@dataclass(frozen=True)
class Output:
    """What one call reported. raw is the exact output text, compared
    between calls on the same case for the determinism check."""

    raw: str
    communities: dict
    q: float
    cap_hit: bool


@dataclass(frozen=True)
class Workload:
    """A named workload. A run makes `calls(seconds)` cases from its seed;
    `seconds_per_call` is a fixed nominal cost (measured once on a 2-core
    Xeon), so the work done per run never depends on the clock."""

    name: str
    seconds_per_call: float
    make_spec: Callable[[random.Random], Spec] | None = None  # None: the karate file
    agent_count: int | None = None

    def calls(self, seconds: float) -> int:
        return max(1, round(seconds / self.seconds_per_call))

    def cases(self, seed: int, seconds: float) -> list[Case]:
        """Every case of a run, made from the workload seed. Generated
        graphs reach the program only as GML text."""
        import commwalker

        rng = random.Random(f"{self.name}:{seed}")
        if self.make_spec is None:
            spec = karate_spec()
            graph = commwalker.load_edge_list(self.karate_path().read_text())
            return [Case(spec, graph, rng.randrange(2**31)) for _ in range(self.calls(seconds))]
        cases = []
        for _ in range(self.calls(seconds)):
            spec = self.make_spec(rng)
            graph, _ = commwalker.load_gml(spec.to_gml())
            cases.append(Case(spec, graph, rng.randrange(2**31)))
        return cases

    @staticmethod
    def karate_path():
        return files("commwalker") / "data" / "karate.edges"

    def call(self, case: Case):
        """Run the program once. This and only this is timed."""
        import commwalker
        import commwalker.cli

        if self.make_spec is None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = commwalker.cli.main(
                    ["detect", "--input", str(self.karate_path()), "--seed", str(case.seed)]
                )
            return status, out.getvalue()
        return commwalker.detect(case.graph, seed=case.seed, agent_count=self.agent_count)

    def decode(self, result) -> Output:
        """Read a call's result; raises ValueError when it cannot be read."""
        if self.make_spec is None:
            status, text = result
            if status != 0:
                raise ValueError(f"detect exited with status {status}")
            payload = json.loads(text)
            return Output(text, payload["communities"], payload["q"],
                          payload["diagnostics"]["cap_hit"])
        return Output(json.dumps(result.to_json_dict(), sort_keys=True),
                      result.communities, result.q, result.diagnostics.cap_hit)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's benchmark, through the CLI with default parameters.
        Workload("karate", 0.6),
        # A fixed budget of n agents instead of the default 8n keeps the walk
        # short enough that the flood-fill sweep is about half of each call.
        Workload("dense-sweep", 3.8, dense_sweep_graph, agent_count=160),
        # The only workload on the per-component branch of detect().
        Workload("components", 2.4, components_graph),
    )
}
