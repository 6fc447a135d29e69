#!/usr/bin/env python3
"""Aggregate the committed evaluation snapshot into tier tables.

Reads the per-direction scores under tests/data/ and prints the markdown
tier table for each metric, using the 59-language mutual-support overlap
(the full registry minus mn_cn).
"""
import pathlib
import sys

from mmtkit.evaluation import aggregate, read_eval_records, render_table
from mmtkit.registry import load_registry

RECORDS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "comet_bleu_records.jsonl"


def main() -> int:
    registry = load_registry()
    overlap = set(registry.codes()) - {"mn_cn"}
    for metric in ("COMET22", "SacreBLEU"):
        with open(RECORDS, encoding="utf-8") as f:
            table = aggregate(read_eval_records(f, registry, path=str(RECORDS)), registry, overlap=overlap, metric=metric)
        print(f"## {metric}\n")
        sys.stdout.write(render_table(table, fmt="markdown"))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
