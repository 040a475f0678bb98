"""Walker generations: biased tabu walks, co-visit counting, start placement.

One generation = a batch of walker agents reading a frozen weight snapshot,
each reporting its memory (the ordered list of visited nodes) to the
coordinator, which then applies all updates at once. Walks within a
generation are independent: agent k of generation t reads only the snapshot
and its own uniforms, so the result does not depend on how the walks are
scheduled.

All randomness comes from one counter-based generator, numpy's Philox
(Salmon et al., SC 2011), keyed by (seed, generation). Lane k of generation
t is row k of that stream read as (agents, draws) (_walk_uniforms). Every
component's agents read lanes 0 .. agents - 1, which are drawn once and
read in place by the kernel, never copied. Generation 0's random node
order is read from the stream keyed (seed, 0) jumped 2**128 words ahead,
past every walk draw (_start_order_words). One explore() call builds one
Philox for its walk draws and re-keys it each generation by assigning its
state, which costs a fraction of building a generator
(_generation_streams).

Co-visit weights are one int64 array indexed by edge id. A report adds 1 to
every pair of distinct nodes in it, but only the pairs that are edges are
stored: the walk, the edge sweep and the output read nothing else. The
kernel returns a slot of every pair of a report, or 2m for no edge: a
step's pick is the slot of the pair it walks, and each other pair is
looked up once by its two nodes (Graph.slots_of, which the tabu also
reads, and which alone knows how a pair is keyed); a generation's pair
counts are one bincount over those slots.
The kernel writes a generation's memory, first visits and pair slots into
arrays its caller owns (_walk_arrays), which explore() allocates only when
the running set of components changes: a run holds one generation's
arrays, reused from generation to generation, never two. During the run
the counts live in the slot masses 1 + weight, both slots of an edge
alike, kept from one generation to the next and read back per edge id at
the end.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidError, _integer
from .graph import Graph, _search_in_order

# Weights are indexed by edge id.
EdgeWeights = np.ndarray

# One generation's arrays grow with agents x memory^2 (the pair slots of
# every report); explore() allocates them once per running set and the
# kernel rewrites them each generation. Configs above this many cells are
# rejected before allocating, and explore() batches only as many
# components as fit in this budget.
MAX_GENERATION_CELLS = 1 << 24

# After generation 0, ceil(HUB_SHARE * agents) of a component's agents start
# on its most-hit nodes and the rest on its least-hit ones.
HUB_SHARE = 0.75


@dataclass(frozen=True)
class ExplorationConfig:
    """Run parameters for the exploration phase, checked on construction:
    a bad value raises ConfigInvalidError, so every config explore() gets
    is one it can run.

    All four fields are integers (read through operator.index, stored as
    int). agent_count must be at least 2 (the stop threshold
    (agents - 1) * memory would otherwise be zero) and memory_size at least
    2 (a pair update needs two nodes); agent_count * memory_size**2 may not
    exceed MAX_GENERATION_CELLS, so one generation's arrays stay within
    memory. max_generations is a safety cap: the visit-count stop rule can
    stall on pathological topologies. seed must be in [0, 2**64), the range
    of a Philox key word. The share of agents started on most-hit nodes is
    no field: it is fixed at HUB_SHARE, so a run needs no threshold.
    """

    agent_count: int
    memory_size: int
    max_generations: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("agent_count", "memory_size", "max_generations", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.agent_count < 2:
            raise ConfigInvalidError(f"agent_count must be >= 2, got {self.agent_count}")
        if self.memory_size < 2:
            raise ConfigInvalidError(f"memory_size must be >= 2, got {self.memory_size}")
        if self.agent_count * self.memory_size**2 > MAX_GENERATION_CELLS:
            raise ConfigInvalidError(
                f"agent_count * memory_size**2 must be <= {MAX_GENERATION_CELLS}, got "
                f"{self.agent_count} * {self.memory_size}**2"
            )
        if self.max_generations < 1:
            raise ConfigInvalidError(f"max_generations must be >= 1, got {self.max_generations}")
        if not 0 <= self.seed < 2**64:
            raise ConfigInvalidError(f"seed must be in [0, 2**64), got {self.seed}")

    @classmethod
    def for_size(
        cls,
        node_count: int,
        edge_count: int,
        *,
        agent_count: int | None = None,
        memory_size: int | None = None,
        **fixed,
    ) -> "ExplorationConfig":
        """The config for a graph of these counts: agent_count and
        memory_size, when None, are filled from the counts, and fixed names
        any other field, which otherwise keeps its default.

        Agents scale with node count: the visit-count stop rule makes total
        walk mass grow with the agent count, and cross-community edge
        weights plateau while intra weights keep growing, so more agents
        directly sharpen the weight ranking (calibrated on the bundled and
        synthetic benchmarks). Memories stay short, near one neighborhood
        deep; longer windows blend adjacent communities. The default memory
        is 3 or 4, and 3 at edge_count 0.
        """
        if agent_count is None:
            agent_count = max(16, 8 * node_count)
        if memory_size is None:
            avg_degree = 2 * edge_count / node_count if node_count else 0.0
            memory_size = min(4, max(3, math.ceil(avg_degree)))
        return cls(agent_count, memory_size, **fixed)


@dataclass(frozen=True)
class ExplorationResult:
    """weights[e] is the co-visit count of the endpoints of edge e and
    hits[v] the visits of node v.

    component_generations[c] and component_cap_hit[c] are the generations
    component c of the graph (in Graph.components order) ran and whether it
    hit the cap (0 and False for a single node); generations_run is their
    sum and cap_hit their OR.
    """

    weights: EdgeWeights
    hits: list[int]
    component_generations: tuple[int, ...]
    component_cap_hit: tuple[bool, ...]

    @property
    def generations_run(self) -> int:
        return sum(self.component_generations)

    @property
    def cap_hit(self) -> bool:
        return any(self.component_cap_hit)

    @property
    def total_hops(self) -> int:
        return sum(self.hits)


_UNIT = 2.0**-53  # scales a 53-bit integer into [0, 1)


def _philox(seed: int, generation: int) -> np.random.Philox:
    """The counter-based generator of one generation, keyed by (seed,
    generation). The key is built as a uint64 array: a list with a word at
    or above 2**63 would pass through float64 and lose its low bits."""
    return np.random.Philox(key=np.array([seed, generation], dtype=np.uint64))


def _generation_streams(seed: int) -> Callable[[int], np.random.Philox]:
    """One Philox for every generation of a run: the returned function
    re-keys it and returns it in the state _philox(seed, generation) starts
    in (counter 0, no buffered words, key (seed, generation)). Each call
    builds its own generator, so runs on other threads never share one."""
    philox = _philox(seed, 0)
    fresh = philox.state

    def keyed(generation: int) -> np.random.Philox:
        fresh["state"]["key"] = np.array([seed, generation], dtype=np.uint64)
        philox.state = fresh
        return philox

    return keyed


def _walk_uniforms(philox: np.random.Philox, agent_count: int, draws: int) -> np.ndarray:
    """The walk uniforms of one generation, read from philox at the start
    of its generation's stream: row k (lane k) is words k * draws to
    (k + 1) * draws - 1, each u = (word >> 11) * 2**-53, so a row never
    depends on the agent count. Only random_raw() is read: numpy keeps
    bit-generator streams stable, not Generator methods.
    """
    words = philox.random_raw(agent_count * draws)
    words >>= 11
    return words.reshape(agent_count, draws) * _UNIT


def _start_order_words(seed: int, count: int) -> np.ndarray:
    """The first `count` words of generation 0's start-order stream."""
    return _philox(seed, 0).jumped().random_raw(count)


@dataclass(frozen=True)
class _Segments:
    """The nodes of several components as one array, component i at
    positions offsets[i] .. offsets[i + 1] - 1 (label[p] is the component
    of position p), and the gather indices that give each component
    agent_count starts from one sorted order of all positions: cycled
    cycles through each component's slice (generation 0), and split takes
    the first ceil(HUB_SHARE * agent_count) from a most-hit order and the
    rest from a least-hit order stacked after it."""

    offsets: np.ndarray
    label: np.ndarray
    cycled: np.ndarray
    split: np.ndarray

    @classmethod
    def of_sizes(cls, sizes: np.ndarray, cfg: ExplorationConfig) -> "_Segments":
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        first, size = offsets[:-1, None], sizes[:, None]
        hub_count = math.ceil(HUB_SHARE * cfg.agent_count)
        hubs = first + np.arange(hub_count) % size
        rest = offsets[-1] + first + np.arange(cfg.agent_count - hub_count) % size
        return cls(
            offsets=offsets,
            label=np.repeat(np.arange(len(sizes)), sizes),
            cycled=(first + np.arange(cfg.agent_count) % size).ravel(),
            split=np.concatenate((hubs, rest), axis=1).ravel(),
        )


def select_start_nodes(
    hits: np.ndarray, cfg: ExplorationConfig, generation: int, segments: _Segments
) -> np.ndarray:
    """Start nodes for one generation of agents, as indices into hits, the
    int64 hit counts of the components segments lays out, each in node id
    order: every component gets cfg.agent_count starts, one component after
    the other, all from one sort over hits keyed first by component.

    Generation 0 ignores hits and orders a component's n nodes at random,
    by the stable argsort of the first n of _start_order_words, read once
    for the largest component. Later generations put
    ceil(HUB_SHARE * agents) on the most-hit nodes and the rest on the
    least-hit ones, so hubs are reinforced while neglected regions keep
    getting visits; hit ties break by node id. Each order is cycled
    through, so start nodes repeat only when there are more agents than
    nodes, and then every node gets floor or ceil(agents / n).
    """
    if generation == 0:
        local = np.arange(len(hits)) - segments.offsets[segments.label]
        order_words = _start_order_words(cfg.seed, int(local.max()) + 1)
        # lexsort is stable: equal words keep node id order
        return np.lexsort((order_words[local], segments.label))[segments.cycled]
    # component * top + hits orders by component, then by hits, and
    # component * top + (top - 1 - hits) by component, then by hits below
    # the most; stable sorts keep ties in node id order
    top = hits.max() + 1
    least = segments.label * top + hits
    most = least - 2 * hits
    most += top - 1
    return np.concatenate((most.argsort(kind="stable"), least.argsort(kind="stable")))[segments.split]


def exploration_done(hits: np.ndarray, cfg: ExplorationConfig, segments: _Segments) -> np.ndarray:
    """Stop rule, one verdict per component segments lays out (see
    select_start_nodes), as a bool array: every node of the component
    visited at least (agents - 1) * memory_size times."""
    floor = (cfg.agent_count - 1) * cfg.memory_size
    return np.minimum.reduceat(hits, segments.offsets[:-1]) >= floor


def _slot_masses(g: Graph, edge_weights: EdgeWeights) -> np.ndarray:
    """The move mass 1 + weight of every slot, in slot order, plus a
    trailing 0 at index 2m, the kernel's empty tabu entry."""
    mass = np.zeros(len(g.neighbors) + 1, dtype=np.int64)
    mass[:-1] = 1 + edge_weights[g.edge_ids]
    return mass


def _walk_arrays(memory_size: int, agents: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays _csr_walks writes one generation of agents into, left
    unfilled: memory and first, (memory_size, agents), and slots,
    (memory_size * (memory_size - 1) / 2, agents)."""
    return (
        np.empty((memory_size, agents), dtype=np.int64),
        np.empty((memory_size, agents), dtype=bool),
        np.empty((memory_size * (memory_size - 1) // 2, agents), dtype=np.int64),
    )


def _csr_walks(
    g: Graph,
    mass: np.ndarray,
    starts: np.ndarray,
    uniforms: np.ndarray,
    walks: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The walks of every agent of a generation, all taking step s together;
    the test suite pins them to a scalar reference that walks the same rows
    one agent at a time.

    walks = (memory, first, slots) are the caller's arrays (_walk_arrays),
    which set the memory size and the agent count (memory.shape) and are
    returned. Every cell of the three is written on every call, whatever
    they held, so one set serves generation after generation; the kernel
    allocates none of them.

    Column k of the (memory_size, agents) memory is agent k's walk from
    starts[k]: every node already in its memory is tabu (the tabu is
    dropped for a step when it would block every neighbor), and a step
    moves to a non-tabu neighbor with probability proportional to
    1 + edge weight, drawn in order with the uniforms of lane
    k % len(uniforms); the mask marks the first visit of each node in each
    column. A uniform is spent only on steps with more than one candidate;
    a forced step's only candidate is found for any u.

    Row j(j - 1) / 2 + i of slots (np.tril_indices(memory_size, -1)
    order) holds each agent's slot of the edge memory[i]-memory[j], i < j,
    read from either end, or 2m for no edge: node j's older pairs, from
    the tabu lookup of the step leaving it (one Graph.slots_of call after
    the last step for the last node), then the pick that reached it. The
    kernel hands Graph.slots_of a node row and the older memory rows, and
    writes the rows it returns as they are; it builds no pair key. Each
    row is written as soon as it is found.

    mass holds the slot masses (_slot_masses). They are summed once into a
    prefix over all slots, and each node's row start in it, row mass and
    degree are read off once, so a step gathers three values per agent and
    costs agents x memory whatever the degrees; arrays are step-major, so
    every per-step operation runs over whole rows of agents. With T the
    allowed mass and r = u * T, the pick is the first slot whose allowed
    running mass reaches floor(r) + 1: a pass over the tabu slots in
    ascending order adds the mass of each one lying before the target so
    far to the target, and one search in the prefix (_search_in_order)
    finds the pick.

    Steps 1 to 3 are closed forms, with no tabu rows to sort: step 1 has no
    tabu, step 2 only the twin of the slot step 1 took, and step 3 that
    twin plus the start's slot in the current row. From step 4 on, that is,
    with a memory of 5 or more, the tabu slots are the twin of the slot
    just taken plus the slots of the older memory nodes in the current row,
    sorted down each column (_sort_columns), an older node seen twice
    dropped.
    """
    indptr, neighbors, twins = g.indptr, g.neighbors, g.twins
    no_slot = len(neighbors)  # sorts after every slot and weighs nothing
    before = np.zeros(no_slot + 1, dtype=np.int64)  # mass of all slots before each slot
    mass[:-1].cumsum(out=before[1:])
    through = before[1:]  # mass of all slots up to and including each slot
    row_start = before[indptr]
    row_target = row_start[:-1] + 1  # the target of r = 0 in each node's row
    row_mass = row_start[1:] - row_start[:-1]
    row_degree = indptr[1:] - indptr[:-1]
    memory, first, slots = walks
    memory_size, agents = memory.shape
    lanes = len(uniforms)
    memory[0] = starts
    first[:2] = True  # later rows are written by the step that reaches them
    # lane j's d-th uniform is draws[j * per_lane + d]; agent k starts at
    # lane k % lanes and advances by one on each step that spends a uniform
    draws, per_lane = uniforms.ravel(), uniforms.shape[1]
    next_draw = np.arange(0, agents * per_lane, per_lane)
    if agents > lanes:
        next_draw %= lanes * per_lane
    for step in range(1, memory_size):
        current = memory[step - 1]
        degree = row_degree[current]
        allowed = row_mass[current]
        if step == 1:
            tabu_rows = ()
            spends = degree > 1
        elif step == 2:
            slots[0] = pick  # node 1 has no older pair
            # the only tabu is the twin of the slot just taken; it blocks
            # the step exactly at a leaf, where it is dropped (weighs 0)
            free = np.greater(degree, 1, out=first[2])
            tabu = twins[pick]
            tabu_mass = mass[tabu] * free
            allowed -= tabu_mass
            tabu_rows = ((tabu, tabu_mass),)
            spends = degree > 2
        else:
            # tabu: the twin of the slot just taken, and the slots of older
            # memory nodes, one Graph.slots_of call, one row per older node,
            # whatever pair table the graph holds (the current node is never
            # its own neighbor, so nodes equal to it find no slot, 2m). They
            # cover the row exactly when the step revisits a node.
            row = (step - 1) * (step - 2) // 2  # the first row of node step - 1
            older = g.slots_of(current, memory[: step - 2])
            slots[row : row + step - 2] = older
            slots[row + step - 2] = pick
            twin = twins[pick]
            if step == 3:
                # the only older node is the start, which has no slot
                # exactly when step 2 was blocked at a leaf and came back
                # to it. The twin leads back to the node step 1 reached,
                # never the start, so the two tabu slots differ and sort
                # with one minimum and one maximum. They block the step
                # exactly when they cover the row, and are then dropped
                # (weigh 0).
                older = older[0]  # the start's row, the only one
                candidates = degree - 1 - (older < no_slot)
                free = np.not_equal(candidates, 0, out=first[3])
                low, high = np.minimum(twin, older), np.maximum(twin, older)
                low_mass, high_mass = mass[low] * free, mass[high] * free
                allowed -= low_mass
                allowed -= high_mass
                tabu_rows = ((low, low_mass), (high, high_mass))
                spends = np.where(free, candidates, degree) > 1
            else:
                tabu = np.concatenate((twin[None], older))
                _sort_columns(tabu)
                tabu[1:][tabu[1:] == tabu[:-1]] = no_slot  # a node seen twice
                candidates = degree - (tabu < no_slot).sum(axis=0)
                blocked = candidates == 0
                if blocked.any():
                    np.copyto(tabu, no_slot, where=blocked)
                    np.copyto(candidates, degree, where=blocked)
                tabu_mass = mass[tabu]
                allowed -= tabu_mass.sum(axis=0)
                tabu_rows = zip(tabu, tabu_mass)
                spends = candidates > 1
                first[step] = ~blocked
        # A uniform u <= 1 - 2**-53 times an integer total T < 2**53 rounds
        # below T, so floor(r) + 1 <= T: some slot is always reached. r >= 0,
        # so truncation is the floor.
        target = row_target[current] + (draws[next_draw] * allowed).astype(np.int64)
        next_draw += spends
        # The tabu rows ascend down each column, so a slot's prefix
        # position is below the target raised by the tabu slots before it
        # exactly when its allowed mass before is below floor(r) + 1
        # (no_slot, even between two slots, and a dropped slot weigh
        # nothing).
        for slot, slot_mass in tabu_rows:
            target += slot_mass * (before[slot] < target)
        # the pick is the first slot whose mass through it reaches the target
        pick = _search_in_order(through, target)
        memory[step] = neighbors[pick]
    # the last node's rows are the last memory_size - 1
    slots[1 - memory_size : -1] = g.slots_of(memory[-1], memory[:-2])
    slots[-1] = pick
    return walks


def _sort_columns(a: np.ndarray) -> None:
    """Sort each column of a short 2-D array in place (odd-even
    transposition: len(a) rounds of compare-exchanges between whole rows).
    It beats np.sort(axis=0) only on a few rows: at 272 agents, 3 rows take
    ~8 us against ~12 us, but 11 rows ~140-200 us against ~15-20 us. The
    crossover moves with the agent count too: whole runs at 3,200 agents
    were faster with it than with np.sort at memories 6 and 8. Its one
    caller is _csr_walks, for the tabu rows of steps 4 and later, which
    default runs never reach."""
    for round_ in range(len(a)):
        for i in range(round_ % 2, len(a) - 1, 2):
            low = np.minimum(a[i], a[i + 1])
            np.maximum(a[i], a[i + 1], out=a[i + 1])
            a[i] = low


def explore(g: Graph, cfg: ExplorationConfig) -> ExplorationResult:
    """Run generations of walks (_csr_walks) until the stop rule fires or
    the cap hits. All walks of a generation read the edge weights as they
    stood when the generation started; their pair counts and hits are
    applied together afterwards.

    g may be any graph. Walkers never cross components, so every component
    of g.components of two or more nodes is explored as explore() would
    explore its induced subgraph: cfg.agent_count agents per generation,
    its own start selection and its own stop rule. Single nodes are not
    explored, so a graph without an edge runs 0 generations. The components
    share one generation loop over the whole graph's rows, in groups small
    enough that a generation's arrays stay within MAX_GENERATION_CELLS. A
    component leaves its group when its stop rule fires, and those still
    running after cfg.max_generations hit the cap. Each generation lays the
    running components' nodes out as one array (_Segments), so one
    select_start_nodes and one exploration_done call serve them all.
    """
    labels = np.asarray(g.components.community_of, dtype=np.int64)
    sizes = np.bincount(labels, minlength=g.components.community_count)
    grouped = np.argsort(labels, kind="stable")  # each component's nodes in id order
    n, m = g.node_count, g.edge_count
    agents, memory_size = cfg.agent_count, cfg.memory_size
    right, left = np.tril_indices(memory_size, -1)  # the row order of the kernel's slots
    mass = _slot_masses(g, np.zeros(m, dtype=np.int64))
    hits = np.zeros(n, dtype=np.int64)
    streams = _generation_streams(cfg.seed)
    generations = np.zeros(len(sizes), dtype=np.int64)
    cap_hit = np.zeros(len(sizes), dtype=bool)
    walked = np.flatnonzero(sizes > 1)
    per_group = MAX_GENERATION_CELLS // (agents * memory_size**2)
    for at in range(0, len(walked), per_group):
        running = walked[at : at + per_group]
        segments = None
        for generation in range(cfg.max_generations):
            if segments is None:  # the running set changed
                segments = _Segments.of_sizes(sizes[running], cfg)
                members = grouped[np.isin(labels[grouped], running)]
                walks = _walk_arrays(memory_size, agents * len(running))
            at_member = select_start_nodes(hits[members], cfg, generation, segments)
            lanes = _walk_uniforms(streams(generation), agents, memory_size - 1)
            memory, first, slots = _csr_walks(g, mass, members[at_member], lanes, walks)
            # every pair of distinct memory nodes, each once per agent (first
            # visits only); the pairs that are edges add 1 to both slots of
            # their edge
            keep = first[left] & first[right]
            counts = np.bincount(slots[keep], minlength=2 * m + 1)[:-1]
            mass[:-1] += counts
            mass[:-1] += counts[g.twins]
            hits += np.bincount(memory.ravel(), minlength=n)
            generations[running] = generation + 1
            done = exploration_done(hits[members], cfg, segments)
            if done.any():
                running, segments = running[~done], None
                if not len(running):
                    break
        cap_hit[running] = True
    weights = np.zeros(m, dtype=np.int64)
    weights[g.edge_ids] = mass[:-1] - 1
    return ExplorationResult(
        weights=weights,
        hits=hits.tolist(),
        component_generations=tuple(generations.tolist()),
        component_cap_hit=tuple(cap_hit.tolist()),
    )
