"""Cross-commit determinism guard: the SHA-256 of CLI `detect` JSON for
fixed inputs, seeds and parameters. A change that alters any output byte
(walk sampling, stream hashing, weight update, sweep order, JSON layout)
fails here, not only a rerun within one process."""

import hashlib
from importlib.resources import files

import pytest

from commwalker import to_edge_list
from commwalker.cli import main

from _helpers import connected_planted

KARATE_DIGESTS = {
    0: "bb33939a09e7d4f60ebbed6e435ca656c320f81df4cfb670c050fee8fd0c527d",
    1: "cae997f5dc81bc83e84723d01c7b6aa25728c1a6155492f0112ddd3eca2bf548",
    2: "d9431e27d3bcb08fb4027d0116aa8d750dd6b123654396e4f13cb55d768fe2f4",
    3: "a7c07e2f1376cd9a564b395388c8a1ca59b22f0c008d18bd0ef819d711f538e8",
    4: "880a203154f6423fa3ec550e188f75df90bd1e190670b33ef21f473bda438c18",
}

# Connected planted 2x80, p_in 0.7, p_out 0.02 (~4.6k edges), 160 agents:
# the shape of the benchmark's dense-sweep workload. Keyed by graph seed,
# which is also the detect seed.
PLANTED_DIGESTS = {
    11: "7b56366db37fd75c1eaffe580e8cc0418f125d4fe74971821fe74d03b4e97695",
    12: "ae0bd08e60832178e642831e675fd84a2aa0bdcb75d49fbeb1e200f275d6f9f5",
}

# Disconnected graphs on the per-component branch of detect(): two sparse
# planted components, a hub joined to K4 cliques, and an isolated node,
# written as GML (an edge list cannot carry an isolated node). Keyed by
# graph seed, which is also the detect seed.
COMPONENTS_DIGESTS = {
    21: "4fe0bcc2bd3865b7e4dbba4cf78686c0be5953a891c1d1bc3f82de290ed18840",
    22: "c04c275e03627d926704c73a3e810cdbae0bb983b23913e70cc0d977db5122ed",
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
    lines = ["graph ["]
    lines += [f'  node [ id {i} label "n{i}" ]' for i in range(n)]
    lines += [f"  edge [ source {u} target {v} ]" for u, v in edges]
    return "\n".join(lines + ["]"]) + "\n"


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
