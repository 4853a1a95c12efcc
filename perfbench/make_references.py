"""Write the oracle's reference MAP values and its tolerances.

Usage, from the root of a checkout::

    python3 perfbench/make_references.py --seeds 0-39
    python3 perfbench/make_references.py --tolerance topic --tolerance gjs

``--seeds`` runs one pass of each workload per seed and stores every
cell's MAP. ``--tolerance topic`` measures how far topic MAP moves when
only the sampler seed changes; ``--tolerance gjs`` how far generalized
Jaccard MAP moves when only ``PYTHONHASHSEED`` changes (one child
process per hash seed). Each stores the bound the oracle allows those
cells. Everything else runs with the hash seed the benchmark pins.
Rerun whenever a workload's inputs change; a program change that moves
an exactly compared MAP is a regression, not a reason to rerun.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

#: Dataset seeds and sampler-seed offsets of the topic tolerance study.
TOLERANCE_SEEDS = (1, 2, 3, 4)
SAMPLER_OFFSETS = (0, 101, 202, 303, 404)
#: The topic tolerance is this many pooled standard deviations.
TOLERANCE_SDS = 4.0
#: Hash seeds of the GJS study; its tolerance is this many times the
#: largest range a cell's MAP showed across them.
HASH_SEEDS = ("1", "2", "3", "4", "5", "6")
GJS_RANGE_FACTOR = 2.0


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def load(stem: str) -> dict:
    path = oracle.REFERENCE_DIR / f"{stem}.json"
    if path.exists():
        return json.loads(path.read_text())
    return {"tolerance": {}, "basis": {}, "cells": [], "seeds": {}}


def save(stem: str, doc: dict) -> None:
    oracle.REFERENCE_DIR.mkdir(exist_ok=True)
    path = oracle.REFERENCE_DIR / f"{stem}.json"
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(doc, indent=1) + "\n")


def record_seeds(seeds: list[int], stems: list[str]) -> None:
    for stem in stems:
        workload = workloads.WORKLOADS[stem]
        cells: list[str] = load(stem)["cells"]
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = workload.run_pass(workload.setup(seed))
            if result.failures:
                raise SystemExit(f"{stem} seed {seed}: {result.failures[:3]}")
            if cells and cells != sorted(result.outputs):
                raise SystemExit(f"{stem} seed {seed}: cell set differs from the stored one")
            cells = sorted(result.outputs)
            values[str(seed)] = [result.outputs[key] for key in cells]
            print(f"{stem} seed {seed}: {len(cells)} cells", flush=True)
        doc = load(stem)  # reread: a tolerance study may have written it meanwhile
        doc["cells"] = cells
        doc["seeds"].update(values)
        save(stem, doc)


def store_tolerance(kind: str, value: float, basis: dict, stems: tuple[str, ...]) -> None:
    for stem in stems:
        doc = load(stem)
        doc["tolerance"][kind] = value
        doc.setdefault("basis", {})[kind] = basis
        save(stem, doc)


def measure_topic_tolerance() -> None:
    """Pooled SD of topic MAP across sampler seeds, dataset fixed."""
    deviations: list[float] = []
    worst = 0.0
    for seed in TOLERANCE_SEEDS:
        setup = workloads.topic_fit_setup(seed)
        per_cell: dict[str, list[float]] = {}
        for offset in SAMPLER_OFFSETS:
            configs = [
                c for c in workloads.topic_fit_configs(seed + offset)
                if c.model in workloads.TOPIC
            ]
            result = workloads.sweep_pass(setup, [(configs, [workloads.R])])
            for key, value in result.outputs.items():
                per_cell.setdefault(key, []).append(value)
        for key, values in per_cell.items():
            mean = statistics.fmean(values)
            deviations += [v - mean for v in values]
            worst = max(worst, max(values) - min(values))
            print(f"seed {seed} {key.split('|')[0]}: " + " ".join(f"{v:.4f}" for v in values),
                  flush=True)
    sd = (sum(d * d for d in deviations) / (len(deviations) - 1)) ** 0.5
    tolerance = round(TOLERANCE_SDS * sd, 4)
    print(f"pooled SD {sd:.4f}, largest range {worst:.4f} -> topic tolerance {tolerance}")
    store_tolerance("topic", tolerance, {
        "dataset_seeds": list(TOLERANCE_SEEDS),
        "sampler_seed_offsets": list(SAMPLER_OFFSETS),
        "pooled_sd": sd,
        "largest_range": worst,
        "rule": f"{TOLERANCE_SDS:g} x pooled SD of topic-cell MAP across sampler seeds",
    }, ("topic_fit", "profile_stream"))


def gjs_maps(seed: int) -> dict[str, float]:
    """MAP of every bag_graph_grid GJS cell for a dataset seed, this process."""
    setup = workloads.bag_graph_setup(seed)
    segments = [
        ([c for c in configs if c.params.get("similarity") == "GJS"], [source])
        for configs in workloads.bag_graph_configs(seed).values()
        for source in workloads.BAG_GRAPH_SOURCES
    ]
    return workloads.sweep_pass(setup, [s for s in segments if s[0]]).outputs


def measure_gjs_tolerance() -> None:
    """Largest range of GJS MAP across hash seeds, dataset fixed."""
    worst = 0.0
    moved = cells = 0
    for seed in TOLERANCE_SEEDS:
        per_cell: dict[str, list[float]] = {}
        for hash_seed in HASH_SEEDS:
            child = subprocess.run(
                [sys.executable, __file__, "--gjs-maps", str(seed)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, check=True, timeout=600,
            )
            for key, value in json.loads(child.stdout.splitlines()[-1]).items():
                per_cell.setdefault(key, []).append(value)
        for values in per_cell.values():
            worst = max(worst, max(values) - min(values))
            moved += max(values) != min(values)
        cells += len(per_cell)
        print(f"seed {seed}: {len(per_cell)} GJS cells, largest range so far {worst:.4f}",
              flush=True)
    tolerance = round(GJS_RANGE_FACTOR * worst, 4)
    print(f"{moved}/{cells} cells moved; largest range {worst:.4f} -> gjs tolerance {tolerance}")
    store_tolerance("gjs", tolerance, {
        "dataset_seeds": list(TOLERANCE_SEEDS),
        "hash_seeds": list(HASH_SEEDS),
        "cells_moved": f"{moved}/{cells}",
        "largest_range": worst,
        "rule": f"{GJS_RANGE_FACTOR:g} x the largest range of a GJS cell's MAP across hash seeds",
    }, ("bag_graph_grid",))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[])
    parser.add_argument("--tolerance", choices=("topic", "gjs"), action="append", default=[])
    parser.add_argument("--only", choices=sorted(workloads.WORKLOADS), action="append",
                        help="record only these reference files (repeatable)")
    parser.add_argument("--gjs-maps", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.gjs_maps is not None:  # a child of the GJS study: keep its hash seed
        print(json.dumps(gjs_maps(args.gjs_maps)))
        return
    oracle.pin_hash_seed(sys.argv)
    if "topic" in args.tolerance:
        measure_topic_tolerance()
    if "gjs" in args.tolerance:
        measure_gjs_tolerance()
    if args.seeds:
        record_seeds(args.seeds, args.only or list(workloads.WORKLOADS))


if __name__ == "__main__":
    main()
