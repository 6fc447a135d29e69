"""Seeded input generator for the benchmark.

Everything the measured program reads is built here from one workload seed:
the multi-way corpus (with dirty rows that make every default filter rule
fire, CJK and Thai text for the spaceless-script path, and records covering
only some languages), the score sidecar for scored `mix`, the scorer input,
the monolingual and en-X pivot inputs for `synth`, and the empty inputs used
to time stage set-up. The same seed always gives byte-identical files.

Directions are enumerated here from the registry's language order alone, so
the expected expansion is computed without calling mmtkit code.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

CENTERS = ("en", "zh")
LANGS = ("en", "zh", "fr", "de", "ru", "ar", "ja", "th", "bg", "uk", "vi", "sv")
SPACELESS = frozenset({"zh", "ja", "th"})

# Input sizes. Chosen so one pipeline chain takes about two seconds on two
# cores, which gives several repetitions inside one measured run.
N_RECORDS = 800
N_SCORE = 8000
N_MONO = 6000
N_PIVOT = 4500
FAIL_EVERY = 20  # every 20th backend request fails: 5%, inside the 10% budget
MIX_CAP = 300  # per-direction cap, below every full-coverage direction's count
DIRTY_PER_KIND = 3

_ALPHABETS = {
    "latin": "abcdefghijklmnopqrstuvwxyzéèàüöäåøñç",
    "cyrillic": "абвгдежзийклмнопрстуфхцчшщыэюяіїєґъ",
    "arabic": "ابتثجحخدذرزسشصضطظعغفقكلمنهوي",
}
_SCRIPT = {
    "en": "latin", "fr": "latin", "de": "latin", "vi": "latin", "sv": "latin",
    "ru": "cyrillic", "bg": "cyrillic", "uk": "cyrillic", "ar": "arabic",
}


def json_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def registry_order(root: Path) -> list[str]:
    """Language codes in the built-in registry's file order."""
    path = root / "src" / "mmtkit" / "data" / "languages.jsonl"
    with open(path, encoding="utf-8") as f:
        return [json.loads(line)["code"] for line in f if line.strip()]


def directions(codes: list[str]) -> list[tuple[str, str]]:
    """Bi-centric directions: en<->x for every x, then zh<->x for non-centers."""
    out: list[tuple[str, str]] = []
    for x in codes:
        if x != "en":
            out += [("en", x), (x, "en")]
    for x in codes:
        if x not in CENTERS:
            out += [("zh", x), (x, "zh")]
    return out


def expand(rec: dict, dirs: list[tuple[str, str]]) -> list[dict]:
    s = rec["sentences"]
    return [
        {"id": f"{rec['id']}#{a}2{b}", "src_lang": a, "tgt_lang": b, "src": s[a], "tgt": s[b],
         "provenance": "human"}
        for a, b in dirs
        if a in s and b in s
    ]


class _Texts:
    """Per-language vocabularies and sentence makers."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{seed}:text")
        self.vocab = {}
        for lang, script in _SCRIPT.items():
            vr = random.Random(f"{seed}:vocab:{lang}")
            letters = _ALPHABETS[script]
            self.vocab[lang] = ["".join(vr.choice(letters) for _ in range(vr.randint(2, 9))) for _ in range(400)]

    def _chars(self, lang: str, n: int) -> str:
        r = self.rng
        if lang == "zh":
            return "".join(chr(r.randint(0x4E00, 0x9FA5)) for _ in range(n))
        if lang == "ja":
            return "".join(
                chr(r.randint(0x3041, 0x3096)) if r.random() < 0.6 else chr(r.randint(0x4E00, 0x9FA5))
                for _ in range(n)
            )
        return "".join(chr(r.randint(0x0E01, 0x0E2E)) for _ in range(n))  # Thai

    def sentence(self, lang: str, tokens: int) -> str:
        if lang in SPACELESS:
            return self._chars(lang, max(1, tokens * 4 + self.rng.randint(-3, 3)))
        return " ".join(self.rng.choice(self.vocab[lang]) for _ in range(max(1, tokens)))


@dataclass
class Inputs:
    """Paths of the generated files and the items in them, for the checks."""

    corpus: Path
    scores: Path  # sidecar for scored mix, one score per expanded example
    score_in: Path
    mono: Path
    pivot: Path
    empty: Path
    records: list[dict]
    dirs: list[tuple[str, str]]
    score_items: list[dict]
    mono_items: list[dict]
    pivot_items: list[dict]
    score_map: dict[str, float]
    dirty: dict[str, int]


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


def _corpus(seed: int, texts: _Texts) -> tuple[list[dict], dict[str, int]]:
    rng = random.Random(f"{seed}:corpus")
    clean: list[dict] = []
    # A fixed quarter of the records covers one center and five other
    # languages, so the example count barely changes from seed to seed.
    partial = set(rng.sample(range(N_RECORDS), N_RECORDS // 4))
    others = [lang for lang in LANGS if lang not in CENTERS]
    for i in range(N_RECORDS):
        length = rng.randint(6, 18)
        if i in partial:
            langs = {rng.choice(CENTERS), *rng.sample(others, 5)}
            langs = [lang for lang in LANGS if lang in langs]
        else:
            langs = list(LANGS)
        sentences = {lang: texts.sentence(lang, length + rng.randint(-1, 1)) for lang in langs}
        clean.append({"id": f"r{i:06d}", "sentences": sentences})

    def full(tag: str, k: int) -> dict:
        length = rng.randint(6, 18)
        return {"id": f"{tag}{k:03d}", "sentences": {l: texts.sentence(l, length) for l in LANGS}}

    dirty: list[tuple[int, dict]] = []
    non_centers = [l for l in LANGS if l not in CENTERS and l not in SPACELESS]
    full_coverage = [i for i, rec in enumerate(clean) if len(rec["sentences"]) == len(LANGS)]
    for k in range(DIRTY_PER_KIND):
        rec = full("ws", k)  # NonEmpty: a whitespace-only sentence
        rec["sentences"][rng.choice(non_centers)] = "   "
        dirty.append((rng.randrange(len(clean)), rec))
        rec = full("same", k)  # SrcTgtDistinct: one sentence in two languages
        rec["sentences"][rng.choice(non_centers)] = rec["sentences"]["en"]
        dirty.append((rng.randrange(len(clean)), rec))
        rec = full("ratio", k)  # MaxLengthRatio: one very long side
        rec["sentences"][rng.choice(non_centers)] = texts.sentence("fr", 90)
        dirty.append((rng.randrange(len(clean)), rec))
        rec = {"id": f"long{k:03d}", "sentences": {l: texts.sentence(l, rng.randint(520, 560)) for l in ("en", "de", "fr")}}
        dirty.append((rng.randrange(len(clean)), rec))  # LengthBounds: >512 tokens, ratio within 3
        rec = full("ctrl", k)  # ControlCharFree: a C0 control character
        words = rec["sentences"]["en"].split(" ")
        words.insert(rng.randrange(len(words) + 1), "\x07")
        rec["sentences"]["en"] = " ".join(words)
        dirty.append((rng.randrange(len(clean)), rec))
        pos = rng.choice(full_coverage)  # ExactDedup: a repeated sentence set under a new id
        dirty.append((pos + 1 + rng.randrange(len(clean) - pos), {"id": f"dup{k:03d}", "sentences": dict(clean[pos]["sentences"])}))

    records: list[dict] = []
    by_pos: dict[int, list[dict]] = {}
    for pos, rec in dirty:
        by_pos.setdefault(pos, []).append(rec)
    for i, rec in enumerate(clean + [None]):
        records.extend(by_pos.get(i, []))
        if rec is not None:
            records.append(rec)
    counts = {kind: DIRTY_PER_KIND for kind in ("ws", "same", "ratio", "long", "ctrl", "dup")}
    return records, counts


def qe_score(seed: int, example_id: str) -> float:
    """Sidecar score for scored mix: a seeded hash coordinate."""
    return random.Random(f"{seed}:qe:{example_id}").random()


def _pair(rng: random.Random, texts: _Texts, item_id: str, a: str, b: str) -> dict:
    length = rng.randint(4, 16)
    return {"id": f"{item_id}#{a}2{b}", "src_lang": a, "tgt_lang": b, "src": texts.sentence(a, length),
            "tgt": texts.sentence(b, length), "provenance": "human"}


def _write(path: Path, items: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(json_line(obj) + "\n" for obj in items)
    return path


def generate(root: Path, out: Path, seed: int) -> Inputs:
    out.mkdir(parents=True, exist_ok=True)
    texts = _Texts(seed)
    dirs = directions(registry_order(root))
    records, dirty = _corpus(seed, texts)
    score_map = {ex["id"]: qe_score(seed, ex["id"]) for rec in records for ex in expand(rec, dirs)}

    rng = random.Random(f"{seed}:backend")
    score_items = []
    for i in range(N_SCORE):
        x = rng.choice(LANGS[1:])
        score_items.append(_pair(rng, texts, f"s{i:06d}", *(("en", x) if rng.random() < 0.5 else (x, "en"))))
    mono_items = [{"id": f"m{i:06d}", "lang": "en", "text": texts.sentence("en", rng.randint(4, 16))}
                  for i in range(N_MONO)]
    pivot_items = []
    for i in range(N_PIVOT):
        x = rng.choice([lang for lang in LANGS if lang not in CENTERS])
        pivot_items.append(_pair(rng, texts, f"p{i:06d}", *(("en", x) if i % 2 == 0 else (x, "en"))))

    return Inputs(
        corpus=_write(out / "corpus.mwjsonl", records),
        scores=_write(out / "corpus.scores.jsonl", [{"id": k, "qe_score": v} for k, v in score_map.items()]),
        score_in=_write(out / "score_in.djsonl", score_items),
        mono=_write(out / "mono.jsonl", mono_items),
        pivot=_write(out / "pivot.djsonl", pivot_items),
        empty=_write(out / "empty.jsonl", []),
        records=records,
        dirs=dirs,
        score_items=score_items,
        mono_items=mono_items,
        pivot_items=pivot_items,
        score_map=score_map,
        dirty=dirty,
    )
