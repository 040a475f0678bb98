"""Multi-seed benchmark harness scoring detection against ground truth."""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigInvalidError
from .graph import Graph, Partition
from .scoring import partition_accuracy
from .pipeline import detect

# A trial source maps a seed to the (graph, truth) pair for that trial.
# File-backed benches return the same pair every time; the synthetic bench
# draws a fresh planted graph per seed.
TrialSource = Callable[[int], tuple[Graph, Partition]]


@dataclass(frozen=True)
class TrialOutcome:
    seed: int
    accuracy: float
    community_count: int
    q: float
    cap_hit: bool
    wall_time_s: float


@dataclass(frozen=True)
class BenchReport:
    outcomes: tuple[TrialOutcome, ...]

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def accuracies(self) -> list[float]:
        return [o.accuracy for o in self.outcomes]

    @property
    def mean_accuracy(self) -> float:
        return sum(self.accuracies) / self.runs

    @property
    def min_accuracy(self) -> float:
        return min(self.accuracies)

    def community_count_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for o in self.outcomes:
            histogram[o.community_count] = histogram.get(o.community_count, 0) + 1
        return dict(sorted(histogram.items()))

    def to_json_dict(self) -> dict:
        return {
            "runs": self.runs,
            "per_run": [
                {
                    "seed": o.seed,
                    "accuracy": o.accuracy,
                    "communities": o.community_count,
                    "q": o.q,
                    "cap_hit": o.cap_hit,
                    "wall_time_s": o.wall_time_s,
                }
                for o in self.outcomes
            ],
            "mean_accuracy": self.mean_accuracy,
            "min_accuracy": self.min_accuracy,
            "community_count_histogram": {
                str(k): v for k, v in self.community_count_histogram().items()
            },
        }


def run_bench(
    source: TrialSource,
    trials: int,
    base_seed: int,
    **detect_kwargs,
) -> BenchReport:
    """Run `trials` detections with seeds base_seed..base_seed+trials-1 and
    score each against its ground truth. trials and base_seed are integers
    (read through operator.index, as ExplorationConfig reads its fields), and
    every trial seed is checked against the seed range before the first
    trial runs; a bad value raises ConfigInvalidError."""
    try:
        trials, base_seed = operator.index(trials), operator.index(base_seed)
    except TypeError:
        raise ConfigInvalidError(
            f"trials and base_seed must be integers, got {trials!r} and {base_seed!r}"
        ) from None
    if trials < 1:
        raise ConfigInvalidError(f"trials must be >= 1, got {trials}")
    if not 0 <= base_seed <= 2**64 - trials:
        raise ConfigInvalidError(
            f"trial seeds must be in [0, 2**64), got [{base_seed}, {base_seed + trials})"
        )
    outcomes = []
    for t in range(trials):
        seed = base_seed + t
        g, truth = source(seed)
        started = time.perf_counter()
        result = detect(g, seed=seed, **detect_kwargs)
        elapsed = time.perf_counter() - started
        outcomes.append(
            TrialOutcome(
                seed=seed,
                accuracy=partition_accuracy(result.partition, truth),
                community_count=result.partition.community_count,
                q=result.q,
                cap_hit=result.diagnostics.cap_hit,
                wall_time_s=elapsed,
            )
        )
    return BenchReport(outcomes=tuple(outcomes))
