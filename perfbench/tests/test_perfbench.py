"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    """The named workload on a graph small enough for a test."""
    make = {
        "dense-sweep": lambda rng: workloads.dense_sweep_graph(rng, size=8),
        "components": lambda rng: workloads.components_graph(rng, size=6, cliques=6, clique_size=3),
    }[name]
    return dataclasses.replace(workloads.WORKLOADS[name], make_spec=make, agent_count=None)


class Corrupted:
    """A workload whose decoded outputs pass through `corrupt`."""

    def __init__(self, inner: workloads.Workload, corrupt) -> None:
        self.inner = inner
        self.corrupt = corrupt

    def call(self, case):
        return self.inner.call(case)

    def decode(self, result):
        return self.corrupt(self.inner.decode(result))


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("trace, section, table", [
    (0, "end_to_end", run.END_TO_END),
    (1, "per_layer", tracing.METRICS),
])
def test_every_metric_is_printed_with_its_unit(quick, capsys, trace, section, table):
    assert run.main(["--workload", "karate", "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    for name, unit in table:
        assert any(line.startswith(f"karate {name} ") and line.endswith(f" {unit}")
                   for line in out.splitlines()), name
    result = result_line(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("name", ["dense-sweep", "components"])
def test_generated_workloads_pass_their_checks(name):
    workload = tiny(name)
    cases = workload.cases(seed=5, seconds=2 * workload.seconds_per_call)
    bench = run.Run(workload, cases)
    bench.call(0)
    done = bench.timed_pass(range(len(cases)))
    assert bench.failed == 0 and len(done) == len(cases) == 2
    values = run.end_to_end(done, 0.1, bench)
    assert values["failed_frac"] == 0 and 0 < values["accuracy_mean"] <= 1


def test_inputs_follow_the_seed():
    workload = tiny("components")
    a, b, c = (workload.cases(seed, 1) for seed in (1, 1, 2))
    assert [x.spec for x in a] == [x.spec for x in b] != [x.spec for x in c]
    assert [x.seed for x in a] == [x.seed for x in b]


def test_components_graph_shape():
    spec = workloads.components_graph(random.Random(0))
    ids = workloads.component_ids(len(spec.names), spec.edges)
    assert max(ids) + 1 == 4  # two sparse components, the hub and its cliques, one isolated node
    assert ids.count(ids[-1]) == 1


def test_wrong_q_counts_as_failed():
    workload = tiny("dense-sweep")
    cases = workload.cases(seed=2, seconds=workload.seconds_per_call)
    bad = Corrupted(workload, lambda out: dataclasses.replace(out, q=out.q + 0.01))
    bench = run.Run(bad, cases)
    done = bench.timed_pass(range(len(cases)))
    assert done == [] and bench.failed == bench.attempted == 1
    assert run.end_to_end(done, 0.1, bench)["failed_frac"] == 1.0


def test_community_across_components_counts_as_failed():
    workload = tiny("components")
    cases = workload.cases(seed=2, seconds=workload.seconds_per_call)
    names = cases[0].spec.names

    def merge_isolated_node(out):
        # the last node is the isolated one: give it the label of node 0
        communities = dict(out.communities)
        communities[names[-1]] = communities[names[0]]
        return dataclasses.replace(out, communities=communities)

    honest = workload.decode(workload.call(cases[0]))
    found = checks.problems(cases[0], merge_isolated_node(honest), None)
    assert any("spans several input components" in p for p in found)
    bench = run.Run(Corrupted(workload, merge_isolated_node), cases)
    assert bench.timed_pass([0]) == [] and bench.failed == 1


def test_changed_output_for_same_input_is_a_failure():
    workload = tiny("dense-sweep")
    case = workload.cases(seed=4, seconds=1)[0]
    out = workload.decode(workload.call(case))
    assert checks.problems(case, out, out.raw) == []
    assert checks.problems(case, out, out.raw + " ") != []


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (
        ("commwalker.pipeline", "renamed_away", "pipeline.gone", None),
        ("commwalker.no_such_module", "f", "gone", None),
    ))
    workload = tiny("dense-sweep")
    case = workload.cases(seed=1, seconds=1)[0]
    tracer = tracing.Tracer()
    with tracer.installed():
        workload.call(case)
    assert tracer.absent == {"commwalker.pipeline.renamed_away", "commwalker.no_such_module.f"}
    values = tracer.metrics(1, 1.0, 1.0, {})
    assert set(values) == {name for name, _ in tracing.METRICS}
    assert values["exploration.hops"] > 0 and values["analysis.sweep_s"] > 0
    import commwalker.pipeline
    assert commwalker.pipeline.explore.__name__ == "explore"  # unwrapped again


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [("exploration.explore", 0.0, 1.0, -1, 0),
                    ("exploration.select_starts", 0.1, 0.3, 0, 0),
                    ("exploration.stop_check", 0.4, 0.5, 0, 0)]
    tracer.counts["exploration.hops"] = 1000
    values = tracer.metrics(1, 1.0, 0.9, {0: 2.0})
    assert values["exploration.self_s"] == pytest.approx(1.4)
    assert values["exploration.ns_per_hop"] == pytest.approx(1.4e6)
    assert values["trace.overhead_s"] == pytest.approx(0.1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "karate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
