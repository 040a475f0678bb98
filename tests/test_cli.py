import json
import tracemalloc
from dataclasses import MISSING, fields
from importlib.resources import files

import pytest

import commwalker.cli as cli
import commwalker.scoring as scoring
from commwalker import ExplorationConfig, load_edge_list, modularity
from commwalker.cli import build_parser, main
from commwalker.graph import Partition

from _helpers import BARBELL_TEXT, record_configs

DATA = files("commwalker") / "data"


@pytest.fixture
def barbell_file(tmp_path):
    path = tmp_path / "barbell.edges"
    path.write_text(BARBELL_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_detect_json_output(barbell_file, capsys):
    code, out, _ = run_cli(capsys, "detect", "--input", barbell_file, "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"communities", "q", "diagnostics"}
    assert set(payload["communities"]) == {"a", "b", "c", "d", "e", "f"}
    g = load_edge_list(BARBELL_TEXT)
    labels = [payload["communities"][name] for name in g.nodes]
    recomputed = modularity(g, Partition.from_labels(labels))
    assert payload["q"] == recomputed
    diag = payload["diagnostics"]
    for key in ("generations_run", "total_hops", "removed_edges_at_best",
                "cap_hit", "seed", "agent_count", "memory_size"):
        assert key in diag


def test_detect_tsv_output(barbell_file, capsys):
    code, out, _ = run_cli(capsys, "detect", "--input", barbell_file, "--output", "tsv")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 6
    names = [line.split("\t")[0] for line in lines]
    assert names == ["a", "b", "c", "d", "e", "f"]
    assert all(line.split("\t")[1].isdigit() for line in lines)


def test_detect_byte_identical_reruns(barbell_file, capsys):
    _, first, _ = run_cli(capsys, "detect", "--input", barbell_file, "--seed", "7")
    _, second, _ = run_cli(capsys, "detect", "--input", barbell_file, "--seed", "7")
    assert first == second


def test_detect_gml_format_inferred(capsys):
    code, out, _ = run_cli(capsys, "detect", "--input", str(DATA / "karate.gml"),
                           "--agents", "32", "--memory", "3", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["communities"]) == 34


def test_detect_missing_file(capsys):
    code, _, err = run_cli(capsys, "detect", "--input", "/nonexistent/graph.edges")
    assert code == 1
    assert "error:" in err


def test_detect_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("a b c\n")
    code, _, err = run_cli(capsys, "detect", "--input", str(bad))
    assert code == 1
    assert "error:" in err


def test_detect_bad_config(barbell_file, capsys):
    code, _, err = run_cli(capsys, "detect", "--input", barbell_file, "--agents", "1")
    assert code == 2
    assert "error:" in err


def test_eval_perfect_and_confusion(tmp_path, barbell_file, capsys):
    _, out, _ = run_cli(capsys, "detect", "--input", barbell_file, "--seed", "1")
    result_path = tmp_path / "result.json"
    result_path.write_text(out)
    payload = json.loads(out)
    truth_path = tmp_path / "truth.labels"
    truth_path.write_text(
        "".join(f"{name} {label}\n" for name, label in payload["communities"].items())
    )
    code, out, _ = run_cli(capsys, "eval", "--result", str(result_path), "--truth", str(truth_path))
    assert code == 0
    assert "accuracy: 1.000000" in out
    assert "confusion matrix" in out


def test_eval_accepts_tsv_result(tmp_path, capsys):
    result_path = tmp_path / "result.tsv"
    result_path.write_text("a\t0\nb\t0\nc\t1\n")
    truth_path = tmp_path / "truth.labels"
    truth_path.write_text("a 5\nb 5\nc 9\n")
    code, out, _ = run_cli(capsys, "eval", "--result", str(result_path), "--truth", str(truth_path))
    assert code == 0
    assert "accuracy: 1.000000" in out


@pytest.mark.parametrize("result_format", ["tsv", "json"])
def test_eval_reads_back_tsv_names_with_spaces(tmp_path, capsys, result_format):
    # GML labels may contain spaces (polbooks' book titles do), and detect's
    # TSV names each node by its label: eval reads it back as a result file
    # and as a truth file
    graph_path = tmp_path / "books.gml"
    graph_path.write_text(
        'graph [ node [ id 0 label "War on Terror" ] node [ id 1 label "Bush" ]'
        " node [ id 2 label x ] edge [ source 0 target 1 ] edge [ source 1 target 2 ] ]"
    )
    _, tsv, _ = run_cli(capsys, "detect", "--input", str(graph_path), "--output", "tsv")
    assert tsv.startswith("War on Terror\t")
    truth_path = tmp_path / "truth.tsv"
    truth_path.write_text(tsv)
    result_path = tmp_path / f"result.{result_format}"
    _, out, _ = run_cli(capsys, "detect", "--input", str(graph_path), "--output", result_format)
    result_path.write_text(out)
    code, out, err = run_cli(capsys, "eval", "--result", str(result_path), "--truth", str(truth_path))
    assert (code, err) == (0, "")
    assert "accuracy: 1.000000" in out


@pytest.mark.parametrize("label", ["", "#a", "x\ny", " a"], ids=["empty", "hash", "newline", "space"])
def test_detect_tsv_refuses_a_name_eval_reads_back_wrong(tmp_path, capsys, label):
    # read back, these tsv lines give an unreadable line, a comment, two
    # lines and the name 'a'
    graph_path = tmp_path / "triangle.gml"
    graph_path.write_text(
        f'graph [ node [ id 0 label "{label}" ] node [ id 1 label "b" ] node [ id 2 label "c" ]'
        " edge [ source 0 target 1 ] edge [ source 1 target 2 ] edge [ source 0 target 2 ] ]"
    )
    code, out, err = run_cli(capsys, "detect", "--input", str(graph_path), "--output", "tsv")
    assert (code, out) == (1, "")
    assert repr(label) in err
    code, out, _ = run_cli(capsys, "detect", "--input", str(graph_path))
    assert code == 0
    assert label in json.loads(out)["communities"]


def test_eval_karate_one_misplaced(tmp_path, capsys):
    truth_text = (DATA / "karate_truth.labels").read_text()
    result_path = tmp_path / "result.tsv"
    flipped = []
    for line in truth_text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, label = line.split()
        if name == "3":
            label = "1" if label == "0" else "0"
        flipped.append(f"{name}\t{label}")
    result_path.write_text("\n".join(flipped) + "\n")
    truth_path = tmp_path / "truth.labels"
    truth_path.write_text(truth_text)
    code, out, _ = run_cli(capsys, "eval", "--result", str(result_path), "--truth", str(truth_path))
    assert code == 0
    assert f"accuracy: {33/34:.6f}" in out


def test_eval_builds_the_confusion_matrix_once(tmp_path, capsys, monkeypatch):
    built = []
    confusion_matrix = scoring.confusion_matrix

    def counting(predicted, truth):
        built.append(1)
        return confusion_matrix(predicted, truth)

    monkeypatch.setattr(scoring, "confusion_matrix", counting)
    monkeypatch.setattr(cli, "confusion_matrix", counting)
    result_path = tmp_path / "result.tsv"
    result_path.write_text("a\t0\nb\t0\nc\t1\nd\t2\n")
    truth_path = tmp_path / "truth.labels"
    truth_path.write_text("a x\nb x\nc y\nd y\n")
    code, out, _ = run_cli(capsys, "eval", "--result", str(result_path), "--truth", str(truth_path))
    assert code == 0
    assert "accuracy: 0.750000" in out
    assert len(built) == 1


def test_eval_truth_missing_node(tmp_path, capsys):
    result_path = tmp_path / "result.tsv"
    result_path.write_text("a\t0\nb\t1\n")
    truth_path = tmp_path / "truth.labels"
    truth_path.write_text("a 0\n")
    code, _, err = run_cli(capsys, "eval", "--result", str(result_path), "--truth", str(truth_path))
    assert code == 1
    assert "error:" in err


def test_eval_truth_names_unknown_node(tmp_path, capsys):
    result_path = tmp_path / "result.tsv"
    result_path.write_text("a\t0\nb\t1\n")
    truth_path = tmp_path / "truth.labels"
    truth_path.write_text("a 0\nb 1\nc 0\n")
    code, out, err = run_cli(capsys, "eval", "--result", str(result_path), "--truth", str(truth_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "names unknown node 'c'" in err


CONFIG_FLAGS = {
    "agent_count": ("--agents", "6"),
    "memory_size": ("--memory", "2"),
    "max_generations": ("--max-generations", "3"),
    "seed": ("--seed", "7"),
}
KARATE_FILES = ["--input", str(DATA / "karate.edges"), "--truth", str(DATA / "karate_truth.labels")]


@pytest.mark.parametrize("command", ["detect", "bench"])
def test_config_flags_set_every_config_field(capsys, monkeypatch, command):
    assert set(CONFIG_FLAGS) == {f.name for f in fields(ExplorationConfig)}
    explored = record_configs(monkeypatch)
    inputs = {"detect": KARATE_FILES[:2], "bench": [*KARATE_FILES, "--trials", "1"]}[command]
    flags = [token for pair in CONFIG_FLAGS.values() for token in pair]
    assert run_cli(capsys, command, *inputs, *flags)[0] == 0
    assert explored == [ExplorationConfig(6, 2, max_generations=3, seed=7)]


@pytest.mark.parametrize("command", ["detect", "bench"])
def test_hub_fraction_is_no_flag(capsys, command):
    # the hub share is fixed, so the flag is a usage error like any unknown one
    with pytest.raises(SystemExit) as exit_:
        run_cli(capsys, command, *KARATE_FILES[:2], "--hub-fraction", "0.5")
    assert exit_.value.code == 2
    assert "--hub-fraction" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "bench"])
def test_config_flag_defaults_are_the_field_defaults(command):
    args = build_parser().parse_args([command, "--input", "graph.edges"])
    for f in fields(ExplorationConfig):
        # a field without a default is filled from the graph's size
        assert getattr(args, f.name) == (None if f.default is MISSING else f.default)


def test_detect_flags_do_not_reach_the_next_call(barbell_file, capsys):
    # The parser is built once per process; each call parses into a fresh
    # namespace, so a default call after a flagged one reads the defaults.
    code, _, _ = run_cli(capsys, "detect", "--input", barbell_file, "--seed", "3", "--agents", "20")
    assert code == 0
    code, out, _ = run_cli(capsys, "detect", "--input", barbell_file)
    assert code == 0
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["seed"] == 0
    assert diagnostics["agent_count"] == ExplorationConfig.for_size(6, 7).agent_count != 20


def test_bench_on_karate_files(capsys):
    code, out, err = run_cli(
        capsys, "bench",
        "--input", str(DATA / "karate.edges"),
        "--truth", str(DATA / "karate_truth.labels"),
        "--trials", "2", "--seed", "0",
        "--agents", "32", "--memory", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["runs"] == 2
    assert len(report["per_run"]) == 2
    assert 0.0 <= report["min_accuracy"] <= report["mean_accuracy"] <= 1.0
    assert sum(report["community_count_histogram"].values()) == 2
    assert "mean accuracy" in err
    assert "warning:" not in err  # no trial hit the generation cap


def test_cap_hit_warns_on_stderr_only(capsys):
    karate = str(DATA / "karate.edges")
    code, out, err = run_cli(capsys, "detect", "--input", karate, "--max-generations", "1")
    assert code == 0
    assert json.loads(out)["diagnostics"]["cap_hit"] is True
    [line] = err.splitlines()
    assert line.startswith("warning:") and "--max-generations 1" in line
    code, out, err = run_cli(capsys, "detect", "--input", karate)
    assert (code, err) == (0, "")
    assert json.loads(out)["diagnostics"]["cap_hit"] is False


def test_bench_counts_capped_trials(capsys):
    code, out, err = run_cli(
        capsys, "bench",
        "--input", str(DATA / "karate.edges"),
        "--truth", str(DATA / "karate_truth.labels"),
        "--trials", "2", "--max-generations", "1",
    )
    assert code == 0
    assert all(run["cap_hit"] for run in json.loads(out)["per_run"])
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and "2 of 2 trials" in warnings[0]


def test_bench_zero_trials_is_config_error(capsys):
    code, out, err = run_cli(capsys, "bench", *KARATE_FILES, "--trials", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "trials must be >= 1" in err


def test_bench_single_trial_mean_equals_min(capsys):
    code, out, _ = run_cli(
        capsys, "bench",
        "--input", str(DATA / "karate.edges"),
        "--truth", str(DATA / "karate_truth.labels"),
        "--trials", "1", "--agents", "32", "--memory", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mean_accuracy"] == report["min_accuracy"]


def test_bench_gml_truth_from_values(capsys):
    code, out, _ = run_cli(
        capsys, "bench",
        "--input", str(DATA / "karate.gml"),
        "--trials", "1", "--agents", "32", "--memory", "3",
    )
    assert code == 0
    assert json.loads(out)["runs"] == 1


def test_bench_synthetic(capsys):
    code, out, _ = run_cli(
        capsys, "bench",
        "--synthetic", "blocks=2,size=8,pin=0.9,pout=0.05",
        "--trials", "2", "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["runs"] == 2
    assert report["mean_accuracy"] > 0.5


def test_bench_requires_truth_or_synthetic(capsys, barbell_file):
    code, _, err = run_cli(capsys, "bench", "--input", barbell_file, "--trials", "1")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "bench", "--trials", "1")
    assert code == 2


def test_bench_synthetic_refuses_file_flags(capsys, monkeypatch):
    # --synthetic makes its own graphs: a file flag beside it is refused, not
    # ignored, and named, before any file is read or trial run
    def no_detect(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("commwalker.bench.detect", no_detect)
    code, out, err = run_cli(
        capsys, "bench", "--synthetic", "blocks=2,size=5,pin=0.9,pout=0.1",
        "--input", "missing.edges", "--truth", "missing.labels", "--trials", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--input, --truth" in err
    code, _, err = run_cli(
        capsys, "bench", "--synthetic", "blocks=2,size=5,pin=0.9,pout=0.1", "--format", "gml",
    )
    assert code == 2
    assert "--format" in err


def test_bench_synthetic_flag_validation(capsys):
    # a missing key, a repeated one that would otherwise win silently, an
    # entry without '=' and a value that is no number
    for spec, named in [
        ("blocks=2,size=8", "pin"),
        ("blocks=2,blocks=3,size=6,pin=0.9,pout=0.1", "'blocks'"),
        ("blocks=2,size8,pin=0.9,pout=0.1", "key=value, got 'size8'"),
        ("blocks=2,size=eight,pin=0.9,pout=0.1", "bad --synthetic value"),
    ]:
        code, out, err = run_cli(capsys, "bench", "--synthetic", spec, "--trials", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "flags, named",
    [
        ([], "memory_size**2"),
        (["--memory", "3"], "memory_size**2"),
        (["--agents", "16", "--memory", "4096"], "memory_size**2"),
        (["--agents", "16", "--max-generations", "0"], "max_generations"),
    ],
)
def test_bench_synthetic_checks_config_before_drawing(capsys, monkeypatch, flags, named):
    # The planted size fixes the default agents (8 per node) and the default
    # memory is at least 3, so a config refused at memory 3 is refused with
    # exit 2 before the first planted graph, a quadratic draw, is made.
    def no_draw(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr("commwalker.cli.planted_partition", no_draw)
    code, out, err = run_cli(
        capsys, "bench", "--synthetic", "blocks=100000,size=100000,pin=0.5,pout=0.1",
        "--trials", "1", *flags,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_detect_seed_outside_key_range_is_config_error(barbell_file, capsys, seed):
    code, out, err = run_cli(capsys, "detect", "--input", barbell_file, "--seed", seed)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "seed, trials, named",
    [(str(2**64 - 2), "3", f"[{2**64 - 2}, {2**64 + 1})"), ("-1", "1", "[-1, 0)")],
)
def test_bench_seed_range_checked_before_any_trial(capsys, monkeypatch, seed, trials, named):
    # 2**64 - 2 is a valid seed, but its third trial's is not: the whole
    # range is refused up front, named as typed, and no detection runs.
    def no_detect(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("commwalker.bench.detect", no_detect)
    code, out, err = run_cli(
        capsys, "bench", "--synthetic", "blocks=2,size=8,pin=0.9,pout=0.05",
        "--seed", seed, "--trials", trials,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_detect_non_utf8_input(tmp_path, capsys):
    bad = tmp_path / "latin1.edges"
    bad.write_bytes("caf\xe9 b\n".encode("latin-1"))
    code, _, err = run_cli(capsys, "detect", "--input", str(bad))
    assert code == 1
    assert "error:" in err and "UTF-8" in err


def test_eval_tsv_result_non_integer_label(tmp_path, capsys):
    result_path = tmp_path / "result.tsv"
    result_path.write_text("a\t0\nb\tx\n")
    truth_path = tmp_path / "truth.labels"
    truth_path.write_text("a 0\nb 1\n")
    code, _, err = run_cli(capsys, "eval", "--result", str(result_path), "--truth", str(truth_path))
    assert code == 1
    assert "error:" in err and "'b'" in err


def test_eval_json_communities_not_a_map(tmp_path, capsys):
    result_path = tmp_path / "result.json"
    truth_path = tmp_path / "truth.labels"
    truth_path.write_text("0 0\n1 1\n")
    # JSON booleans load as Python bools, which are ints: still not labels
    for communities in ([0, 1], {"0": 0, "1": True}):
        result_path.write_text(json.dumps({"communities": communities}))
        code, _, err = run_cli(
            capsys, "eval", "--result", str(result_path), "--truth", str(truth_path)
        )
        assert code == 1
        assert "error:" in err and "'communities' map" in err


@pytest.mark.parametrize("result_text", ["", json.dumps({"communities": {}})], ids=["tsv", "json"])
def test_eval_no_nodes_is_input_error(tmp_path, capsys, result_text):
    result_path = tmp_path / "result"
    result_path.write_text(result_text)
    truth_path = tmp_path / "truth.labels"
    truth_path.write_text("")
    code, out, err = run_cli(capsys, "eval", "--result", str(result_path), "--truth", str(truth_path))
    assert (code, out) == (1, "")
    assert "error:" in err and "name no nodes" in err


@pytest.mark.parametrize(
    "flags",
    [["--memory", "100000000"], ["--agents", "100000000", "--max-generations", "1"]],
    ids=["memory", "agents"],
)
def test_detect_oversized_generation_is_config_error(tmp_path, capsys, flags):
    # Rejected when the ExplorationConfig is built, before any per-generation
    # array exists: the run allocates next to nothing.
    path = tmp_path / "path.edges"
    path.write_text("a b\nb c\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "detect", "--input", str(path), *flags)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "memory_size" in err
    assert peak < 2**22


def without_wall_times(bench_out: str) -> dict:
    report = json.loads(bench_out)
    for run in report["per_run"]:
        del run["wall_time_s"]
    return report


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    # a BOM must neither hide a GML block nor turn a leading '#' comment
    # or the first node name into something else
    paths = {}
    for name in ("karate.gml", "karate.edges", "karate_truth.labels"):
        original = DATA / name
        copy = tmp_path / name
        copy.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        paths[name] = (str(original), str(copy))
    small = ("--agents", "32", "--memory", "3", "--seed", "0")

    def outputs(gml, edges, truth):
        runs = []
        for graph in (gml, edges):
            code, out, _ = run_cli(capsys, "detect", "--input", graph, *small)
            assert code == 0
            runs.append(out)
        result = tmp_path / "result.tsv"
        code, out, _ = run_cli(capsys, "detect", "--input", edges, "--output", "tsv", *small)
        assert code == 0
        result.write_text(out)
        code, out, _ = run_cli(capsys, "eval", "--result", str(result), "--truth", truth)
        assert code == 0
        runs.append(out)
        for graph in ((gml,), (edges, "--truth", truth)):
            code, out, _ = run_cli(capsys, "bench", "--input", *graph, "--trials", "1", *small)
            assert code == 0
            runs.append(without_wall_times(out))
        return runs

    originals, copies = zip(*paths.values())
    assert outputs(*copies) == outputs(*originals)


def test_gml_inferred_from_extension_in_any_case(tmp_path, capsys):
    upper = tmp_path / "KARATE.GML"
    upper.write_bytes((DATA / "karate.gml").read_bytes())
    runs = [run_cli(capsys, "detect", "--input", path, "--agents", "32", "--memory", "3")
            for path in (str(DATA / "karate.gml"), str(upper))]
    assert runs[0][0] == 0
    assert runs[1] == runs[0]
