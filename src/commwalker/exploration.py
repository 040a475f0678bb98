"""Walker generations: biased tabu walks, co-visit counting, start placement.

One generation = a batch of walker agents reading a frozen weight snapshot,
each reporting its memory (the ordered list of visited nodes) to the
coordinator, which then applies all updates at once. Walks within a
generation are independent: agent k of generation t reads only the snapshot
and its own uniform stream, keyed by (seed, t, k), so the result does not
depend on how the walks are scheduled. explore() moves all agents of a
generation together, one step at a time, as arrays; run_walk() is the
one-agent reference that this lockstep kernel is pinned to.

Co-visit weights are one int64 array indexed by edge id. A report adds 1 to
every pair of distinct nodes in it, but only the pairs that are edges are
stored: the walk, the edge sweep and the output read nothing else.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidError, IsolatedNodeError, NotConnectedError
from .graph import Graph, is_connected

# Memories are plain ordered lists of node ids; hit counts are indexed by
# node id (a list or an int array); weights are indexed by edge id.
AgentMemory = list
HitCounts = list | np.ndarray
EdgeWeights = np.ndarray

_START_LANE = -1  # substream lane for start selection; agents use 0..A-1
# Per-generation arrays grow with agents x memory^2 (the pairs of every
# report); configs above this many cells are rejected before allocating.
MAX_GENERATION_CELLS = 1 << 24


@dataclass(frozen=True)
class ExplorationConfig:
    """Run parameters for the exploration phase.

    agent_count must be at least 2 (the stop threshold (agents - 1) * memory
    would otherwise be zero) and memory_size at least 2 (a pair update needs
    two nodes); agent_count * memory_size**2 may not exceed
    MAX_GENERATION_CELLS, so one generation's arrays stay within memory.
    max_generations is a safety cap: the visit-count stop rule can stall on
    pathological topologies.
    """

    agent_count: int
    memory_size: int
    hub_fraction: float = 0.75
    max_generations: int = 1000
    seed: int = 0

    def validate(self) -> None:
        if self.agent_count < 2:
            raise ConfigInvalidError(f"agent_count must be >= 2, got {self.agent_count}")
        if self.memory_size < 2:
            raise ConfigInvalidError(f"memory_size must be >= 2, got {self.memory_size}")
        if self.agent_count * self.memory_size**2 > MAX_GENERATION_CELLS:
            raise ConfigInvalidError(
                f"agent_count * memory_size**2 must be <= {MAX_GENERATION_CELLS}, got "
                f"{self.agent_count} * {self.memory_size}**2"
            )
        if not 0.0 <= self.hub_fraction <= 1.0:
            raise ConfigInvalidError(f"hub_fraction must be in [0, 1], got {self.hub_fraction}")
        if self.max_generations < 1:
            raise ConfigInvalidError(f"max_generations must be >= 1, got {self.max_generations}")

    @classmethod
    def for_graph(
        cls,
        g: Graph,
        *,
        agent_count: int | None = None,
        memory_size: int | None = None,
        hub_fraction: float = 0.75,
        max_generations: int = 1000,
        seed: int = 0,
    ) -> "ExplorationConfig":
        """Fill unset parameters from graph shape.

        Agents scale with node count: the visit-count stop rule makes total
        walk mass grow with the agent count, and cross-community edge
        weights plateau while intra weights keep growing, so more agents
        directly sharpen the weight ranking (calibrated on the bundled and
        synthetic benchmarks). Memories stay short, near one neighborhood
        deep; longer windows blend adjacent communities.
        """
        if agent_count is None:
            agent_count = max(16, 8 * g.node_count)
        if memory_size is None:
            avg_degree = 2 * g.edge_count / g.node_count if g.node_count else 0.0
            memory_size = min(4, max(3, math.ceil(avg_degree)))
        cfg = cls(
            agent_count=agent_count,
            memory_size=memory_size,
            hub_fraction=hub_fraction,
            max_generations=max_generations,
            seed=seed,
        )
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class ExplorationResult:
    """weights[e] is the co-visit count of the endpoints of edge e."""

    weights: EdgeWeights
    hits: list[int]
    generations_run: int
    cap_hit: bool

    @property
    def total_hops(self) -> int:
        return sum(self.hits)


def _substream(seed: int, generation: int, lane: int) -> random.Random:
    """Independent, platform-stable RNG for one (generation, lane) cell."""
    digest = hashlib.blake2b(b"%d:%d:%d" % (seed, generation, lane), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


_UNIFORMS_PER_BLOCK = 8  # one 64-byte BLAKE2b digest = 8 big-endian 64-bit words
_UNIT = 2.0**-53  # scales a 53-bit integer into [0, 1)


def _stream_prefix(seed: int, generation: int):
    """BLAKE2b state after the key prefix shared by every lane of a generation."""
    return hashlib.blake2b(b"%d:%d:" % (seed, generation), digest_size=64)


def _stream_block(prefix, lane: int, counter: int) -> bytes:
    """Block `counter` of the walk stream for one lane: the digest of the key
    b"seed:generation:lane:counter", resumed from the generation's prefix."""
    state = prefix.copy()
    state.update(b"%d:%d" % (lane, counter))
    return state.digest()


class _WalkStream:
    """Uniform stream from counter-mode BLAKE2b, keyed by (seed, generation, lane).

    Much cheaper to set up than random.Random (walks are short and there are
    hundreds of thousands of them), deterministic across platforms, and
    independent across lanes. Only .random() is provided; that is all a walk
    needs. _walk_uniforms() produces the same numbers for a whole generation
    at once.
    """

    __slots__ = ("_prefix", "_lane", "_counter", "_buf", "_pos")

    def __init__(self, seed: int, generation: int, lane: int) -> None:
        self._prefix = _stream_prefix(seed, generation)
        self._lane = lane
        self._counter = 0
        self._buf = b""
        self._pos = 64

    def random(self) -> float:
        pos = self._pos
        if pos >= 64:
            self._buf = _stream_block(self._prefix, self._lane, self._counter)
            self._counter += 1
            pos = 0
        chunk = self._buf[pos : pos + 8]
        self._pos = pos + 8
        # 53-bit mantissa, uniform in [0, 1)
        return (int.from_bytes(chunk, "big") >> 11) * _UNIT


def _walk_uniforms(seed: int, generation: int, agent_count: int, draws: int) -> np.ndarray:
    """Row k holds the first `draws` (rounded up to whole blocks) values that
    _WalkStream(seed, generation, k) returns, bit for bit."""
    blocks = -(-draws // _UNIFORMS_PER_BLOCK)
    prefix = _stream_prefix(seed, generation)
    data = b"".join(
        _stream_block(prefix, k, c) for k in range(agent_count) for c in range(blocks)
    )
    words = np.frombuffer(data, dtype=">u8").reshape(agent_count, blocks * _UNIFORMS_PER_BLOCK)
    return (words >> 11).astype(np.float64) * _UNIT


def move_probabilities(
    g: Graph, w: EdgeWeights, current: int, tabu: set[int]
) -> list[float]:
    """Move distribution over the neighbors of `current`, aligned with
    g.adjacency[current].

    Non-tabu neighbors get probability proportional to 1 + edge weight; tabu
    neighbors get 0. When every neighbor is tabu the tabu is dropped and all
    neighbors compete, so a walk can never deadlock.
    """
    neighbors = g.adjacency[current]
    if not neighbors:
        raise IsolatedNodeError(f"node {current} has no neighbors")
    allowed = [i for i, (v, _) in enumerate(neighbors) if v not in tabu]
    if not allowed:
        allowed = list(range(len(neighbors)))
    weights = [1 + int(w[neighbors[i][1]]) for i in allowed]
    total = sum(weights)
    probs = [0.0] * len(neighbors)
    for i, wt in zip(allowed, weights):
        probs[i] = wt / total
    return probs


def run_walk(g: Graph, w: EdgeWeights, start: int, memory_size: int, rng) -> AgentMemory:
    """One agent walk of exactly memory_size nodes starting at `start`.

    Every node already in this walk's memory is tabu; the tabu is dropped
    for a step when it would block every neighbor. Sampling matches
    move_probabilities exactly, spending one uniform draw per step with more
    than one candidate. rng needs only a .random() method returning floats
    in [0, 1).

    This is the scalar reference for the lockstep kernel in explore(): with
    rng = _WalkStream(seed, generation, k) and the generation's weight
    snapshot, it returns the memory that agent k gets there (the test suite
    pins the equivalence).
    """
    adjacency = g.adjacency
    if not adjacency[start]:
        raise IsolatedNodeError(f"node {start} has no neighbors")
    uniform = rng.random
    memory = [start]
    visited = {start}
    current = start
    for _ in range(memory_size - 1):
        row = adjacency[current]
        candidates = [(v, e) for v, e in row if v not in visited]
        if not candidates:
            candidates = row
        if len(candidates) == 1:
            nxt = candidates[0][0]
        else:
            weights = [1 + int(w[e]) for _, e in candidates]
            r = uniform() * sum(weights)
            acc = 0
            for (v, _), wt in zip(candidates, weights):
                acc += wt
                if r < acc:
                    nxt = v
                    break
        memory.append(nxt)
        visited.add(nxt)
        current = nxt
    return memory


def select_start_nodes(
    g: Graph,
    hits: HitCounts,
    cfg: ExplorationConfig,
    generation: int,
    rng: random.Random,
) -> np.ndarray:
    """Start nodes for one generation of agents.

    Generation 0 places agents on distinct uniformly random nodes. Later
    generations put ceil(hub_fraction * agents) on the most-hit nodes and
    the rest on the least-hit ones, so hubs are reinforced while neglected
    regions keep getting visits. Hit ties break by node id. Start nodes
    repeat only when there are more agents than nodes.
    """
    n = g.node_count
    a = cfg.agent_count
    if generation == 0:
        if a <= n:
            return np.array(rng.sample(range(n), a), dtype=np.int64)
        starts = list(range(n))
        rng.shuffle(starts)
        starts.extend(rng.randrange(n) for _ in range(a - n))
        return np.array(starts, dtype=np.int64)
    hub_count = math.ceil(cfg.hub_fraction * a)
    hits = np.asarray(hits, dtype=np.int64)
    # stable sorts keep equal hit counts in node id order
    by_most_hit = np.argsort(-hits, kind="stable")
    by_least_hit = np.argsort(hits, kind="stable")
    return np.concatenate(
        (by_most_hit[np.arange(hub_count) % n], by_least_hit[np.arange(a - hub_count) % n])
    )


def exploration_done(hits: HitCounts, cfg: ExplorationConfig) -> bool:
    """Stop rule: every node visited at least (agents - 1) * memory_size times."""
    return bool(np.asarray(hits).min() >= (cfg.agent_count - 1) * cfg.memory_size)


def _padded_rows(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g.adjacency as (n, max degree) arrays of neighbor ids and edge ids in
    adjacency order, plus the mask of real (not padding) slots."""
    degree = np.array([len(row) for row in g.adjacency], dtype=np.int64)
    real = np.arange(degree.max()) < degree[:, None]
    flat = np.array([pair for row in g.adjacency for pair in row], dtype=np.int64)
    neighbors = np.zeros(real.shape, dtype=np.int64)
    edge_ids = np.zeros(real.shape, dtype=np.int64)
    neighbors[real] = flat[:, 0]
    edge_ids[real] = flat[:, 1]
    return neighbors, edge_ids, real


def _lockstep_walks(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    edge_weights: EdgeWeights,
    starts: np.ndarray,
    memory_size: int,
    uniforms: np.ndarray,
) -> np.ndarray:
    """run_walk for every agent of a generation, all taking step s together.

    Row k of the result is the memory run_walk returns from starts[k] when
    its stream yields row k of `uniforms`. Candidates sit at their adjacency
    position with zero mass where tabu or padding, so the running mass and
    the first slot whose running mass exceeds r match run_walk's loop; a
    uniform is consumed only on steps with more than one candidate.
    """
    neighbors, edge_ids, real_slots = rows
    agents = len(starts)
    agent_ids = np.arange(agents)
    last_slot = neighbors.shape[1] - 1
    smoothed = 1 + edge_weights
    memory = np.empty((agents, memory_size), dtype=np.int64)
    memory[:, 0] = starts
    drawn = np.zeros(agents, dtype=np.int64)
    for step in range(1, memory_size):
        current = memory[:, step - 1]
        candidates = neighbors[current]
        real = real_slots[current]
        allowed = real.copy()
        for earlier in range(step - 1):  # the current node is never its own neighbor
            allowed &= candidates != memory[:, earlier, None]
        blocked = ~allowed.any(axis=1)
        allowed[blocked] = real[blocked]
        mass = np.where(allowed, smoothed[edge_ids[current]], 0).cumsum(axis=1)
        sampled = allowed.sum(axis=1) > 1
        r = uniforms[agent_ids, drawn] * mass[:, -1]
        drawn += sampled
        # A uniform u <= 1 - 2**-53 times an integer total T < 2**53 rounds
        # below T, so some slot's running mass always exceeds r.
        below = r[:, None] < mass
        last = last_slot - allowed[:, ::-1].argmax(axis=1)  # a forced step's only candidate
        pick = np.where(sampled, below.argmax(axis=1), last)
        memory[:, step] = candidates[agent_ids, pick]
    return memory


def explore(g: Graph, cfg: ExplorationConfig) -> ExplorationResult:
    """Run generations of walks until the stop rule fires or the cap hits.

    All walks of a generation read the edge weights as they stood when the
    generation started; their memory updates and hit increments are applied
    together afterwards. Agent k of generation t draws from a private stream
    keyed by (seed, t, k), so results are reproducible regardless of how the
    walks are scheduled; here they move in lockstep (_lockstep_walks).
    """
    cfg.validate()
    if g.node_count < 2 or not is_connected(g):
        raise NotConnectedError("exploration needs a connected graph with >= 2 nodes")
    n = g.node_count
    m = g.edge_count
    memory_size = cfg.memory_size
    seed = cfg.seed
    rows = _padded_rows(g)
    weights = np.zeros(m, dtype=np.int64)
    edge_keys = np.array([u * n + v for u, v in g.edges], dtype=np.int64)
    edge_by_key = np.argsort(edge_keys)
    sorted_edge_keys = edge_keys[edge_by_key]
    left, right = np.triu_indices(memory_size, 1)
    hits = np.zeros(n, dtype=np.int64)
    generations_run = 0
    cap_hit = False
    for generation in range(cfg.max_generations):
        starts = select_start_nodes(
            g, hits, cfg, generation, _substream(seed, generation, _START_LANE)
        )
        uniforms = _walk_uniforms(seed, generation, len(starts), memory_size - 1)
        memory = _lockstep_walks(rows, weights, starts, memory_size, uniforms)
        # every pair of distinct memory nodes, each once per agent (first
        # visits only); the pairs that are edges add 1 to their edge
        first = np.ones(memory.shape, dtype=bool)
        for step in range(1, memory_size):
            first[:, step] = (memory[:, :step] != memory[:, step, None]).all(axis=1)
        keep = first[:, left] & first[:, right]
        u = memory[:, left][keep]
        v = memory[:, right][keep]
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        at = np.minimum(np.searchsorted(sorted_edge_keys, keys), m - 1)
        weights += np.bincount(edge_by_key[at[sorted_edge_keys[at] == keys]], minlength=m)
        hits += np.bincount(memory.ravel(), minlength=n)
        generations_run = generation + 1
        if exploration_done(hits, cfg):
            break
    else:
        cap_hit = True
    return ExplorationResult(
        weights=weights, hits=hits.tolist(), generations_run=generations_run, cap_hit=cap_hit
    )
