"""Correctness oracle, Fig. 7 ordering checks and percentile rules.

References are the per-cell MAP values the program produced for a set
of workload seeds (``references/*.json``, written by
``make_references.py``). Most bag and graph cells must reproduce them
exactly: those models have no randomness beyond the seeded split. Two
kinds of cell may move within a tolerance stored with the references:

* topic cells (and the LDA stream), within ``tolerance.topic``, derived
  from how far MAP moves when only the sampler seed changes, so that a
  statistically equivalent sampler with a different random stream
  still passes;
* bag cells scored with generalized Jaccard (GJS), within
  ``tolerance.gjs``: the measure sums over a set union, whose order
  follows string hashing, so reordering the sum moves near-tied
  candidates. The bound comes from how far MAP moves when only
  ``PYTHONHASHSEED`` changes.

Every run pins ``PYTHONHASHSEED`` (``pin_hash_seed``), so unchanged
code reproduces even the GJS cells exactly.

A seed with no stored reference is still checked: every pass must
reproduce the first pass's MAP values exactly, and each MAP must lie in
[0, 1].
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
TOPIC_MODELS = ("LDA", "LLDA", "BTM", "HDP", "HLDA")
HASH_SEED = "0"


def pin_hash_seed(argv: list[str]) -> None:
    """Re-execute this script with ``PYTHONHASHSEED=HASH_SEED`` unless it has it.

    ``argv`` is the script path and its arguments (``sys.argv``). The
    process image is replaced, so no child process is left to wait for.
    """
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))


def is_topic(key: str) -> bool:
    return key.split("|", 1)[0] in TOPIC_MODELS


def is_gjs(key: str) -> bool:
    parts = key.split("|", 2)
    return len(parts) == 3 and json.loads(parts[2]).get("similarity") == "GJS"


def cell_tolerance(key: str, tolerance: dict[str, float]) -> float:
    """How far a cell's MAP may move from its reference (0: exactly equal)."""
    if is_topic(key):
        return tolerance.get("topic", 0.0)
    if is_gjs(key):
        return tolerance.get("gjs", 0.0)
    return 0.0


def load_reference(workload: str, seed: int) -> tuple[dict[str, float] | None, dict[str, float]]:
    """(expected MAP per cell key or None, tolerances) for a seed."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None, {}
    doc = json.loads(path.read_text())
    tolerance = {kind: float(value) for kind, value in doc["tolerance"].items()}
    values = doc["seeds"].get(str(seed))
    if values is None:
        return None, tolerance
    return dict(zip(doc["cells"], values)), tolerance


def check_outputs(
    outputs: dict[str, float],
    expected: dict[str, float],
    tolerance: dict[str, float],
) -> list[str]:
    """One line per cell whose MAP is missing, extra or off its reference."""
    problems = []
    for key in sorted(set(expected) - set(outputs)):
        problems.append(f"{key}: missing (expected MAP {expected[key]!r})")
    for key in sorted(set(outputs) - set(expected)):
        problems.append(f"{key}: unexpected cell (MAP {outputs[key]!r})")
    for key in sorted(set(outputs) & set(expected)):
        got, want = outputs[key], expected[key]
        allowed = cell_tolerance(key, tolerance)
        if allowed:
            if not abs(got - want) <= allowed:
                problems.append(
                    f"{key}: MAP {got:.6f} differs from reference {want:.6f} "
                    f"by more than {allowed:g}"
                )
        elif got != want:
            problems.append(f"{key}: MAP {got!r} != reference {want!r}")
    return problems


def check_range(outputs: dict[str, float]) -> list[str]:
    return [
        f"{key}: MAP {value!r} outside [0, 1]"
        for key, value in sorted(outputs.items())
        if not 0.0 <= value <= 1.0
    ]


# -- Fig. 7 ordering ---------------------------------------------------------------


def fig7_checks(model_times: dict[str, list[float]]) -> list[tuple[str, str, str]]:
    """The paper's Fig. 7 ordering, as (check, holds/does not hold/n/a, detail).

    ``model_times`` maps a model to [Σ TTime, Σ ETime, cells]; every
    comparison uses per-cell means, so models with more configurations
    are not penalised for having them.
    """
    per_cell = {
        model: (t / n, e / n) for model, (t, e, n) in model_times.items() if n
    }
    checks: list[tuple[str, str, str]] = []

    def verdict(ok: bool) -> str:
        return "holds" if ok else "does not hold"

    if "TN" in per_cell and len(per_cell) > 1:
        total = {m: t + e for m, (t, e) in per_cell.items()}
        fastest = min(total, key=total.get)
        checks.append((
            "tn_fastest", verdict(fastest == "TN"),
            f"fastest per cell: {fastest} {total[fastest] * 1e3:.2f} ms; "
            f"TN {total['TN'] * 1e3:.2f} ms",
        ))
    else:
        checks.append(("tn_fastest", "n/a", "needs TN and another model"))

    bags = [per_cell[m][0] for m in ("TN", "CN") if m in per_cell]
    graphs = [per_cell[m][0] for m in ("TNG", "CNG") if m in per_cell]
    if bags and graphs:
        ratio = (sum(graphs) / len(graphs)) / (sum(bags) / len(bags))
        checks.append((
            "graph_bag_ttime_ratio", verdict(ratio >= 10.0),
            f"graph/bag TTime per cell = {ratio:.2f}x (paper: >=10x)",
        ))
    else:
        checks.append(("graph_bag_ttime_ratio", "n/a", "needs bag and graph models"))

    topics = {m: per_cell[m][0] for m in TOPIC_MODELS if m in per_cell}
    others = {m: t for m, (t, _) in per_cell.items() if m not in TOPIC_MODELS}
    if topics and others:
        slowest_other = max(others, key=others.get)
        quickest_topic = min(topics, key=topics.get)
        checks.append((
            "topic_slowest_to_train",
            verdict(topics[quickest_topic] > others[slowest_other]),
            f"quickest topic TTime {quickest_topic} {topics[quickest_topic]:.3f} s vs "
            f"slowest other {slowest_other} {others[slowest_other]:.3f} s",
        ))
    else:
        checks.append(("topic_slowest_to_train", "n/a", "needs topic and bag/graph models"))

    if "HLDA" in per_cell and len(per_cell) > 1:
        etime = {m: e for m, (_, e) in per_cell.items()}
        slowest = max(etime, key=etime.get)
        checks.append((
            "hlda_slowest_to_test", verdict(slowest == "HLDA"),
            f"slowest ETime per cell: {slowest} {etime[slowest]:.3f} s; "
            f"HLDA {etime['HLDA']:.3f} s",
        ))
    else:
        checks.append(("hlda_slowest_to_test", "n/a", "needs HLDA and another model"))
    return checks


# -- percentiles -------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile, or None with < 10 samples beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))  # 1-based; the epsilon absorbs q*n rounding
    if n == 0 or n - rank < 10:
        return None
    return sorted(values)[rank - 1]
