"""Command-line interface: detect, eval, bench.

Exit statuses: 0 success, 1 input error, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from .bench import run_bench
from .errors import ConfigError, ConfigInvalidError, InputError, MalformedLineError, UnknownNodeError
from .exploration import ExplorationConfig
from .graph import Graph, Partition, load_edge_list, load_gml, load_labels, parse_label_lines
from .scoring import confusion_matrix, matched_total
from .pipeline import detect
from .synthetic import planted_partition


def _read_text(path: str) -> str:
    """The file's UTF-8 text, without a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_graph(path: str, fmt: str | None) -> tuple[Graph, Partition | None]:
    if fmt is None:
        fmt = "gml" if path.lower().endswith(".gml") else "edgelist"
    text = _read_text(path)
    if fmt == "gml":
        return load_gml(text)
    return load_edge_list(text), None


def _result_json(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True, indent=2)


def _check_tsv_names(g: Graph) -> None:
    """Refuse a graph whose node names a tsv line cannot carry, so that eval
    reads back what detect writes: an empty name, one starting with '#'
    (read as a comment), one holding a line break or with whitespace at
    either end."""
    for name in g.nodes:
        try:
            read_back = parse_label_lines(f"{name}\t0")
        except MalformedLineError:
            read_back = None
        if read_back != {name: "0"}:
            raise MalformedLineError(f"node {name!r} cannot be written as a tsv line")


def cmd_detect(args) -> int:
    g, _ = _load_graph(args.input, args.format)
    if args.output == "tsv":
        _check_tsv_names(g)
    result = detect(g, **_config_params(args))
    if args.output == "json":
        print(_result_json(result))
    else:
        for name in g.nodes:
            print(f"{name}\t{result.communities[name]}")
    if result.diagnostics.cap_hit:
        print(
            f"warning: exploration stopped at --max-generations {args.max_generations} "
            "before its stop rule fired; the edge weights may be undersampled",
            file=sys.stderr,
        )
    return 0


def _load_result_communities(path: str) -> dict[str, int]:
    """Read a detect result: the JSON output or two-column name/community text."""
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        communities = {}
        for name, label in parse_label_lines(text).items():
            try:
                communities[name] = int(label)
            except ValueError:
                raise InputError(
                    f"{path}: community of node '{name}' is not an integer: {label!r}"
                ) from None
        return communities
    communities = payload.get("communities") if isinstance(payload, dict) else None
    # JSON true and false load as bool, a subclass of int: not a label
    if not isinstance(communities, dict) or not all(
        type(label) is int for label in communities.values()
    ):
        raise InputError(f"{path}: JSON result has no 'communities' map of node to integer label")
    return communities


def cmd_eval(args) -> int:
    predicted_map = _load_result_communities(args.result)
    truth_map = parse_label_lines(_read_text(args.truth))
    missing = sorted(set(predicted_map) - set(truth_map))
    if missing:
        raise UnknownNodeError(f"truth file is missing node '{missing[0]}'")
    unknown = sorted(set(truth_map) - set(predicted_map))
    if unknown:
        raise UnknownNodeError(f"truth file names unknown node '{unknown[0]}'")
    if not predicted_map:
        raise InputError(f"{args.result} and {args.truth} name no nodes")

    names = sorted(predicted_map)
    predicted = Partition.from_labels([predicted_map[n] for n in names])
    truth = Partition.from_labels([truth_map[n] for n in names])
    counts = confusion_matrix(predicted, truth)
    accuracy = matched_total(counts) / len(names)

    print(f"accuracy: {accuracy:.6f}")
    print(f"predicted communities: {predicted.community_count}")
    print(f"true communities: {truth.community_count}")
    print("confusion matrix (rows: predicted, columns: true):")
    for row in counts.tolist():
        print("  " + " ".join(f"{c:6d}" for c in row))
    return 0


def _parse_synthetic(text: str) -> dict:
    fields = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        if not value:
            raise ConfigInvalidError(f"--synthetic entries must be key=value, got {item!r}")
        if key.strip() in fields:
            raise ConfigInvalidError(f"--synthetic repeats {key.strip()!r}")
        fields[key.strip()] = value.strip()
    expected = {"blocks", "size", "pin", "pout"}
    if set(fields) != expected:
        raise ConfigInvalidError(f"--synthetic needs exactly {sorted(expected)}, got {sorted(fields)}")
    try:
        return {
            "block_count": int(fields["blocks"]),
            "block_size": int(fields["size"]),
            "p_in": float(fields["pin"]),
            "p_out": float(fields["pout"]),
        }
    except ValueError as exc:
        raise ConfigInvalidError(f"bad --synthetic value: {exc}") from exc


def cmd_bench(args) -> int:
    params = _config_params(args)
    base_seed = params.pop("seed")  # trial t runs seed --seed + t
    if args.synthetic:
        given = {"--input": args.input, "--truth": args.truth, "--format": args.format}
        ignored = [flag for flag, value in given.items() if value is not None]
        if ignored:
            raise ConfigInvalidError(f"--synthetic generates its graphs; drop {', '.join(ignored)}")
        planted = _parse_synthetic(args.synthetic)
        # Every planted graph has blocks x size nodes and a default memory
        # of 3 or 4: a config refused at memory 3 is refused for every
        # graph, so refuse it before the first (quadratic) draw.
        ExplorationConfig.for_size(planted["block_count"] * planted["block_size"], 0, **params)

        def source(seed: int):
            return planted_partition(seed=seed, **planted)

    else:
        if not args.input:
            raise ConfigInvalidError("bench needs --input or --synthetic")
        g, gml_truth = _load_graph(args.input, args.format)
        if args.truth:
            truth = load_labels(_read_text(args.truth), g)
        elif gml_truth is not None:
            truth = gml_truth
        else:
            raise ConfigInvalidError("bench needs --truth (or GML node values) for accuracy scoring")

        def source(seed: int):
            return g, truth

    report = run_bench(source, trials=args.trials, base_seed=base_seed, **params)
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))

    histogram = report.community_count_histogram()
    print("seed  accuracy  communities  q        time_s", file=sys.stderr)
    for o in report.outcomes:
        print(
            f"{o.seed:<5d} {o.accuracy:<9.4f} {o.community_count:<12d} {o.q:<8.4f} {o.wall_time_s:.3f}",
            file=sys.stderr,
        )
    print(
        f"mean accuracy {report.mean_accuracy:.4f}, min {report.min_accuracy:.4f}, "
        f"community counts {histogram}",
        file=sys.stderr,
    )
    capped = sum(o.cap_hit for o in report.outcomes)
    if capped:
        print(
            f"warning: {capped} of {report.runs} trials stopped at --max-generations "
            f"{args.max_generations} before their stop rule fired",
            file=sys.stderr,
        )
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ExplorationConfig field, stored under the field's name."""
    parser.add_argument("--agents", type=int, default=None, dest="agent_count", metavar="AGENTS",
                        help="walker agents per generation")
    parser.add_argument("--memory", type=int, default=None, dest="memory_size", metavar="MEMORY",
                        help="nodes per agent memory")
    parser.add_argument("--max-generations", type=int, default=ExplorationConfig.max_generations,
                        help="safety cap on generations")
    parser.add_argument("--seed", type=int, default=ExplorationConfig.seed,
                        help="random seed in [0, 2**64)")


def _config_params(args) -> dict:
    """The ExplorationConfig fields the config flags set, by name."""
    return {f.name: getattr(args, f.name) for f in fields(ExplorationConfig)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args fills a
    fresh namespace on every call, so one call's flags never reach the next."""
    parser = argparse.ArgumentParser(
        prog="commwalker",
        description="Agent-based community detection on undirected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="detect communities in a graph file")
    p_detect.add_argument("--input", required=True, help="graph file path")
    p_detect.add_argument("--format", choices=["edgelist", "gml"], default=None,
                          help="input format (default: by file extension)")
    p_detect.add_argument("--output", choices=["json", "tsv"], default="json")
    _add_config_flags(p_detect)
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("eval", help="score a detect result against ground-truth labels")
    p_eval.add_argument("--result", required=True, help="detect output (JSON or two-column text)")
    p_eval.add_argument("--truth", required=True, help="ground-truth 'name label' file")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="multi-seed accuracy benchmark")
    p_bench.add_argument("--input", default=None, help="graph file path")
    p_bench.add_argument("--format", choices=["edgelist", "gml"], default=None)
    p_bench.add_argument("--truth", default=None, help="ground-truth 'name label' file")
    p_bench.add_argument("--trials", type=int, default=20)
    p_bench.add_argument("--synthetic", default=None, metavar="blocks=K,size=N,pin=P,pout=Q",
                         help="bench on planted-partition graphs instead of a file")
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
