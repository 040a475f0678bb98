"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one "ACCEPTANCE <id>: PASS/FAIL" line (visible with
`pytest -rA tests/test_acceptance.py`) and then asserts. The karate
clauses 1a and 1b are known limits of the max-Q selection rule on that
graph; see their assertion messages.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from commwalker import (
    ExplorationConfig,
    Partition,
    connected_components,
    detect,
    edge_removal_order,
    explore,
    modularity,
    partition_accuracy,
    planted_partition,
)
from commwalker.cli import main as cli_main
from commwalker.graph import load_gml

from _helpers import (
    BARBELL_BRIDGE,
    barbell6,
    brute_force_best_partition,
    connected_planted,
    edge_weights,
    karate,
    move_probabilities,
    neighbor_lists,
    pairs_graph,
    path_graph,
    random_connected_graph,
    random_partition,
    reachability_components,
)

ACC_THRESHOLD = 33 / 34
DATASET_DIR = Path(__file__).resolve().parent.parent / "datasets"


def report(line: str) -> None:
    print(line)


# --- criterion 1: Zachary karate club -------------------------------------


@pytest.fixture(scope="module")
def karate_runs():
    g, truth = karate()
    started = time.perf_counter()
    results = [detect(g, seed=seed) for seed in range(20)]
    elapsed = time.perf_counter() - started
    return g, truth, results, elapsed


def _merge_singleton_best_q(g, partition, node):
    """Best modularity obtainable by merging `node` into one of its
    neighboring communities."""
    labels = list(partition.community_of)
    own = labels[node]
    best = -math.inf
    for target in {labels[v] for v in neighbor_lists(g)[node]} - {own}:
        merged = list(labels)
        merged[node] = target
        best = max(best, modularity(g, Partition.from_labels(merged)))
    return best


def test_criterion_1a_karate_accuracy_rate(karate_runs):
    g, truth, results, _ = karate_runs
    good = sum(partition_accuracy(r.partition, truth) >= ACC_THRESHOLD for r in results)
    ok = good >= 16
    report(f"ACCEPTANCE 1a: {'PASS' if ok else 'FAIL'}: karate accuracy >= 33/34 in {good}/20 runs (need 16)")
    assert ok, (
        f"karate runs with accuracy >= 33/34: {good}/20, required 16/20. "
        "The maximum-modularity bisection (17/17, Q 0.3718) puts node 9 on the "
        "administrator's side and node 10 on the instructor's side, 32/34 against "
        "the truth labels; the 33/34 split (16/18) has Q 0.3715 and the truth "
        "partition Q 0.3582. Whenever the removal sequence passes the 0.3718 "
        "split, max-Q selection prefers it to the 33/34 split, as in 7 of the "
        "20 runs (seeds 3, 5, 11, 12, 13, 15 and 17); the other 2 misses are "
        "the runs that fail 1b (seeds 1 and 10), 32/34 with one node cut off. "
        "Recorded as a known limit of the method's selection rule."
    )


def test_criterion_1b_karate_two_communities(karate_runs):
    g, truth, results, _ = karate_runs
    clean = 0
    for r in results:
        sizes = r.partition.sizes()
        big = sum(1 for s in sizes if s >= 2)
        if big != 2:
            continue
        singletons = [
            node
            for node, label in enumerate(r.partition.community_of)
            if sizes[label] == 1
        ]
        if all(r.q > _merge_singleton_best_q(g, r.partition, s) for s in singletons):
            clean += 1
    ok = clean == 20
    report(f"ACCEPTANCE 1b: {'PASS' if ok else 'FAIL'}: exactly 2 communities "
           f"(singletons only when Q-justified) in {clean}/20 runs (need 20)")
    assert ok, (
        f"runs with exactly 2 non-singleton communities and only Q-justified "
        f"singletons: {clean}/20, required 20/20. In each failing run every "
        "edge of one low-degree node is cut before the faction split: node 10 "
        "(to 3 and 34) in seed 1, node 29 (to 3, 32 and 34) in seed 10. Every "
        "later candidate carries that node as a singleton; the best one, "
        "[17, 16, 1] with Q 0.3715 (seed 1) and 0.3648 (seed 10), wins the "
        "max-Q selection although merging the node back would raise Q to "
        "0.3718 and 0.3715. Recorded as a known limit of the method's "
        "selection rule."
    )


def test_criterion_1c_karate_runtime(karate_runs):
    _, _, _, elapsed = karate_runs
    ok = elapsed < 5.0
    report(f"ACCEPTANCE 1c: {'PASS' if ok else 'FAIL'}: 20 karate runs took {elapsed:.2f}s (need < 5s)")
    assert ok, f"20 default-config karate runs took {elapsed:.2f}s, budget 5s"


# --- criterion 2: planted-partition accuracy -------------------------------


def test_criterion_2a_two_planted_blocks():
    accuracies = []
    for seed in range(20):
        g, truth = planted_partition(2, 16, 0.5, 0.05, seed)
        result = detect(g, seed=seed)
        accuracies.append(partition_accuracy(result.partition, truth))
    mean = sum(accuracies) / len(accuracies)
    ok = mean >= 0.95
    report(f"ACCEPTANCE 2a: {'PASS' if ok else 'FAIL'}: planted 2x16 mean accuracy {mean:.3f} (need >= 0.95)")
    assert ok, f"mean accuracy {mean:.3f} < 0.95"


def test_criterion_2b_four_planted_blocks():
    # Densities pinned at p_in=0.7, p_out=0.05 so the planted blocks are
    # dense enough to be the modularity optimum.
    recovered = 0
    for seed in range(20):
        g, truth = planted_partition(4, 12, 0.7, 0.05, seed)
        result = detect(g, seed=seed)
        if result.partition.community_count == 4:
            recovered += 1
    ok = recovered >= 14
    report(f"ACCEPTANCE 2b: {'PASS' if ok else 'FAIL'}: planted 4x12 exact block count in {recovered}/20 runs (need 14)")
    assert ok, f"recovered 4 blocks in {recovered}/20 runs, required 14"


@pytest.mark.parametrize("name", ["football", "polbooks"])
def test_criterion_2c_user_supplied_gml(name):
    path = DATASET_DIR / f"{name}.gml"
    if not path.exists():
        pytest.skip(f"user-supplied dataset {path} not present")
    g, truth = load_gml(path.read_text(encoding="utf-8"))
    if truth is None:
        pytest.skip(f"{name}.gml carries no per-node ground truth values")
    accuracies = []
    for seed in range(10):
        result = detect(g, seed=seed)
        accuracies.append(partition_accuracy(result.partition, truth))
    mean = sum(accuracies) / len(accuracies)
    ok = mean >= 0.85
    report(f"ACCEPTANCE 2c: {'PASS' if ok else 'FAIL'}: {name} mean accuracy {mean:.3f} over 10 seeds (need >= 0.85)")
    assert ok


# --- criterion 3: brute-force modularity oracle ----------------------------


def test_criterion_3_oracle_equivalence():
    rng = random.Random(2024)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randrange(4, 9))
        oracle_partition, oracle_q = brute_force_best_partition(g)
        assert modularity(g, oracle_partition) == oracle_q
        for _ in range(100):
            assert modularity(g, random_partition(rng, g.node_count)) <= oracle_q
    _, barbell_q = brute_force_best_partition(barbell6())
    assert abs(barbell_q - 5 / 14) < 1e-12
    report("ACCEPTANCE 3: PASS: oracle dominates 50x100 random partitions; barbell optimum 5/14 exact")


# --- criterion 4: exploration separation -----------------------------------


def test_criterion_4a_barbell_bridge_removed_first():
    g = barbell6()
    bridge_eid = g.edges.index(BARBELL_BRIDGE)
    first = 0
    for seed in range(100):
        result = explore(g, ExplorationConfig.for_size(g.node_count, g.edge_count, seed=seed))
        if edge_removal_order(result.weights)[0] == bridge_eid:
            first += 1
    ok = first >= 95
    report(f"ACCEPTANCE 4a: {'PASS' if ok else 'FAIL'}: barbell bridge ranked first in {first}/100 seeds (need 95)")
    assert ok, f"bridge first in {first}/100 seeds"


def test_criterion_4b_planted_weight_separation():
    diffs = []
    for seed in range(30):
        g, truth = connected_planted(2, 16, 0.5, 0.05, seed)
        result = explore(g, ExplorationConfig.for_size(g.node_count, g.edge_count, seed=seed))
        intra, inter = [], []
        for eid, (u, v) in enumerate(g.edges):
            bucket = intra if truth.community_of[u] == truth.community_of[v] else inter
            bucket.append(int(result.weights[eid]))
        diffs.append(sum(intra) / len(intra) - sum(inter) / len(inter))
    mean = sum(diffs) / len(diffs)
    sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1))
    sems = mean / (sd / math.sqrt(len(diffs)))
    ok = sems >= 2.0
    report(f"ACCEPTANCE 4b: {'PASS' if ok else 'FAIL'}: intra-inter weight margin {sems:.1f} standard errors (need >= 2)")
    assert ok, f"separation margin {sems:.2f} standard errors"


# --- criterion 5: invariant suites ------------------------------------------


def test_criterion_5a_modularity_bounds_and_zero_identity():
    rng = random.Random(55)
    for _ in range(1000):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        p = random_partition(rng, g.node_count)
        q = modularity(g, p)
        assert -0.5 - 1e-12 <= q <= 1.0
        whole = Partition(community_of=[0] * g.node_count, community_count=1)
        assert modularity(g, whole) == 0.0
    report("ACCEPTANCE 5a: PASS: modularity bounds and Q=0 identity on 1000 random pairs")


def test_criterion_5b_move_probability_normalization():
    rng = random.Random(77)
    states = 0
    while states < 10_000:
        g = random_connected_graph(rng, rng.randrange(2, 10))
        counts = {}
        for u, v in g.edges:
            if rng.random() < 0.5:
                counts[(u, v)] = rng.randrange(1, 50)
        w = edge_weights(g, counts)
        for _ in range(50):
            current = rng.randrange(g.node_count)
            tabu = {v for v in range(g.node_count) if rng.random() < 0.3}
            probs = move_probabilities(g, w, current, tabu)
            assert all(p >= 0.0 for p in probs)
            assert abs(sum(probs) - 1.0) <= 1e-12
            states += 1
    report("ACCEPTANCE 5b: PASS: move probabilities normalized to 1e-12 on 10000 random states")


def test_criterion_5c_byte_identical_cli_reruns(tmp_path, capsys):
    from importlib.resources import files

    karate_path = str(files("commwalker") / "data" / "karate.edges")
    argv = ["detect", "--input", karate_path, "--seed", "5"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    ok = first == second and first
    report(f"ACCEPTANCE 5c: {'PASS' if ok else 'FAIL'}: identical (input, config, seed) gives byte-identical JSON")
    assert ok
    json.loads(first)


def test_criterion_5d_components_equal_reachability():
    # exhaustive masks on fixed small graphs
    for g in (barbell6(), pairs_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])):
        for bits in range(2 ** g.edge_count):
            removed = [(bits >> e) & 1 == 1 for e in range(g.edge_count)]
            got = connected_components(g, removed)
            want = Partition.from_labels(reachability_components(g, removed))
            assert got.community_of == want.community_of
    # random masks on random 8-node graphs
    rng = random.Random(99)
    for _ in range(10):
        g = random_connected_graph(rng, 8)
        for _ in range(100):
            removed = [rng.random() < 0.5 for _ in range(g.edge_count)]
            got = connected_components(g, removed)
            want = Partition.from_labels(reachability_components(g, removed))
            assert got.community_of == want.community_of
    report("ACCEPTANCE 5d: PASS: flood fill equals reachability closure on exhaustive and random masks")


# --- criterion 6: termination ------------------------------------------------


def test_criterion_6_termination_within_budget():
    cases = [
        ("karate-34", karate()[0]),
        ("planted-2x16", connected_planted(2, 16, 0.5, 0.05, 3)[0]),
        ("planted-4x50", connected_planted(4, 50, 0.5, 0.05, 7)[0]),
        ("path-200", path_graph(200)),
    ]
    for label, g in cases:
        cfg = ExplorationConfig.for_size(g.node_count, g.edge_count, seed=0)
        started = time.perf_counter()
        result = explore(g, cfg)
        elapsed = time.perf_counter() - started
        floor = (cfg.agent_count - 1) * cfg.memory_size
        assert result.cap_hit or min(result.hits) >= floor, label
        assert elapsed < 60.0, f"{label} took {elapsed:.1f}s"
        report(
            f"ACCEPTANCE 6: PASS: {label}: generations {result.generations_run}, "
            f"cap_hit {result.cap_hit}, min hits {min(result.hits)} vs floor {floor}, {elapsed:.1f}s"
        )
