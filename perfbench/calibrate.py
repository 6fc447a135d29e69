"""Fixed reference work, timed to track the host's speed during a run.

It does what an mmtkit stage does, on fixed data and without mmtkit:
interpreter start, import of the standard-library modules the stages use,
then JSON encode and decode, byte hashing and string splitting. No change
to the program can alter its time. run.py times it between chain
repetitions and scales the end-to-end times by reference time / measured
time (see README.md, "Host speed").
"""
import argparse  # noqa: F401  imported for its start-up cost, like a stage
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import hashlib  # noqa: F401
import importlib.resources  # noqa: F401
import json
import logging  # noqa: F401
import shlex  # noqa: F401
import subprocess  # noqa: F401
import unicodedata  # noqa: F401

ROWS = [
    {"id": f"c{i:05d}#en2fr", "src_lang": "en", "tgt_lang": "fr", "src": "stone river lantern " * (1 + i % 5),
     "tgt": "pierre rivière lanterne " * (1 + i % 4), "provenance": "human"}
    for i in range(1500)
]


def main() -> None:
    h = 0xCBF29CE484222325
    for _ in range(2):
        lines = [json.dumps(row, ensure_ascii=False, separators=(",", ":")) for row in ROWS]
        for obj in map(json.loads, lines):
            for byte in obj["id"].encode("utf-8"):
                h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            h ^= len(obj["src"].split()) + len(obj["tgt"].split())
    print(h)


if __name__ == "__main__":
    main()
