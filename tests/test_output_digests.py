"""Cross-commit determinism guard: the SHA-256 of CLI `detect` JSON for
fixed inputs, seeds and parameters. A change that alters any output byte
(walk sampling, the Philox stream layout, weight update, sweep order, JSON
layout) fails here, not only a rerun within one process."""

import hashlib
import random
from importlib.resources import files

import pytest

from commwalker import to_edge_list
from commwalker.cli import main

from _helpers import connected_planted, random_connected_graph

KARATE_DIGESTS = {
    0: "6a252153ea3ba73364cd8dfb99d1ced4cbe310cbde5feac0d9e9d596a4c99685",
    1: "53aaa674531ab564a3bed751e0c905a78cd2a6cb3dbe27b8a40cf04dde7c0e39",
    2: "422765771abfca64af4d1f6fc9ae2cfb0288f319ed5fe1432b641df0387a1bbb",
    3: "54c9f40632afaddb0101e9cd01ed4b724634f6b6f13cd330454355b23f406e22",
    4: "083aeea2368b8630aef763b142595f566b8f6c5c021684074dc63f8a4dfc6c53",
}

# Connected planted 2x80, p_in 0.7, p_out 0.02 (~4.6k edges), 160 agents:
# the shape of the benchmark's dense-sweep workload. Keyed by graph seed,
# which is also the detect seed.
PLANTED_DIGESTS = {
    11: "8c21d63ce5a960187422618ef95c8f0ec6d15a1a2039b957eafe38f0d46e6353",
    12: "4374bd4acca7b819df42be1a883e0d325dc461296ca393c2b48aa2854834c070",
}

# Disconnected graphs on the per-component branch of detect(): two sparse
# planted components, a hub joined to K4 cliques, and an isolated node,
# written as GML (an edge list cannot carry an isolated node). Keyed by
# graph seed, which is also the detect seed.
COMPONENTS_DIGESTS = {
    21: "07f073fff7ce76f0fb005cc906c5ff50ea47602d66356518262da4684e3bee43",
    22: "99c6111b5488ed43c51577436d8f53aa83d6ab2474cd26320cc86ecea03cf838",
}

# Many components at once: 32 random connected graphs of 2-12 nodes plus 6
# isolated nodes, with the node ids of all components interleaved, so the
# components stop at generations from 2 to 27. Keyed by (graph and detect
# seed, --max-generations); at a cap of 8, 20 of the components hit it.
MANY_COMPONENTS_DIGESTS = {
    (31, 1000): "d539ff4e154c6ffe98adaabc1f8342da429763434062d7e993a9d555afdd0faf",
    (32, 1000): "036f76d8a33a69f50341746a09b961164d2c66c0f99f710c5fbb06472b6037ef",
    (33, 8): "23d578e7a1d2c71c0b3b8c4b10ad155737416e0171d6a1b8bb91bf552f766b46",
}


def components_gml(seed: int, cliques: int = 8) -> str:
    edges: list[tuple[int, int]] = []
    n = 0
    for c in range(2):
        g, _ = connected_planted(2, 12, 0.3, 0.04, 1000 * seed + c)
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.node_count
    hub = n
    n += 1
    for _ in range(cliques):
        members = range(n, n + 4)
        edges += [(hub, u) for u in members]
        edges += [(u, v) for u in members for v in members if u < v]
        n += 4
    n += 1  # the isolated node
    return gml_text(n, edges)


def gml_text(n: int, edges: list[tuple[int, int]]) -> str:
    lines = ["graph ["]
    lines += [f'  node [ id {i} label "n{i}" ]' for i in range(n)]
    lines += [f"  edge [ source {u} target {v} ]" for u, v in edges]
    return "\n".join(lines + ["]"]) + "\n"


def many_components_gml(seed: int, components: int = 32, isolated: int = 6) -> str:
    rng = random.Random(seed)
    parts = []  # node count and local edges of each component
    for _ in range(components):
        size = rng.randrange(2, 13)
        parts.append((size, random_connected_graph(rng, size).edges))
    parts += [(1, [])] * isolated
    n = sum(size for size, _ in parts)
    ids = list(range(n))
    rng.shuffle(ids)  # interleave the components' node ids
    edges, at = [], 0
    for size, local in parts:
        edges += [(ids[at + u], ids[at + v]) for u, v in local]
        at += size
    return gml_text(n, edges)


def detect_digest(capsys, *argv):
    assert main(["detect", *argv]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(KARATE_DIGESTS))
def test_karate_detect_json_digest(capsys, seed):
    karate = str(files("commwalker") / "data" / "karate.edges")
    assert detect_digest(capsys, "--input", karate, "--seed", str(seed)) == KARATE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(PLANTED_DIGESTS))
def test_dense_planted_detect_json_digest(tmp_path, capsys, seed):
    g, _ = connected_planted(2, 80, 0.7, 0.02, seed)
    path = tmp_path / "planted.edges"
    path.write_text(to_edge_list(g))
    digest = detect_digest(capsys, "--input", str(path), "--agents", "160", "--seed", str(seed))
    assert digest == PLANTED_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(COMPONENTS_DIGESTS))
def test_components_detect_json_digest(tmp_path, capsys, seed):
    path = tmp_path / "components.gml"
    path.write_text(components_gml(seed))
    digest = detect_digest(capsys, "--input", str(path), "--seed", str(seed))
    assert digest == COMPONENTS_DIGESTS[seed]


@pytest.mark.parametrize("seed, max_generations", sorted(MANY_COMPONENTS_DIGESTS))
def test_many_components_detect_json_digest(tmp_path, capsys, seed, max_generations):
    path = tmp_path / "many.gml"
    path.write_text(many_components_gml(seed))
    digest = detect_digest(
        capsys, "--input", str(path), "--seed", str(seed), "--max-generations", str(max_generations)
    )
    assert digest == MANY_COMPONENTS_DIGESTS[(seed, max_generations)]
