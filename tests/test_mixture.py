"""SFT mixture: selection, retention, format assignment, output order."""
from __future__ import annotations

import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtkit.directions import enumerate_directions, expand
from mmtkit.errors import MissingScore
from mmtkit.hashing import unit_uniform
from mmtkit.mixture import MixtureSpec, build_sft_mixture
from mmtkit.prompts import PromptFormat, read_prompted
from mmtkit.records import MultiWayRecord, write_jsonl


def spec(**kw):
    base = dict(per_direction_min=0, per_direction_max=10**6, seed=42)
    base.update(kw)
    return MixtureSpec(**base)


def records(n, langs, prefix="m"):
    return [
        MultiWayRecord(id=f"{prefix}{i:05d}", sentences={l: f"{l} text {i}" for l in langs})
        for i in range(n)
    ]


def test_spec_defaults_and_validation():
    d = MixtureSpec()
    assert (d.per_direction_min, d.per_direction_max) == (3000, 20000)
    assert d.forward_pmp_share == 0.5
    assert d.reverse_total_retention == 0.05
    assert d.reverse_pmp_share_of_retained == 0.5
    assert d.seed == 42
    with pytest.raises(ValueError):
        MixtureSpec(forward_pmp_share=1.2)
    with pytest.raises(ValueError):
        MixtureSpec(per_direction_min=10, per_direction_max=5)


@pytest.mark.parametrize("seed", ["x", 7.5, True, None])
def test_spec_refuses_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        MixtureSpec(seed=seed)


def test_unscored_selection_keeps_corpus_order(registry, dirset):
    recs = records(5, ["en", "fr"])
    out, report = build_sft_mixture(
        recs, registry, dirset, spec(per_direction_max=3, reverse_total_retention=1.0)
    )
    rep = report.per_direction["en->fr"]
    assert (rep.candidates, rep.selected) == (5, 3)
    fwd_ids = [pe.id for pe in out if pe.id.endswith("#en2fr")]
    assert fwd_ids == ["m00000#en2fr", "m00001#en2fr", "m00002#en2fr"]


def test_scored_selection_sorts_by_score_then_id(registry, dirset):
    recs = records(4, ["en", "fr"])
    scores = {}
    for i in range(4):
        scores[f"m{i:05d}#en2fr"] = [0.2, 0.9, 0.9, 0.5][i]
        scores[f"m{i:05d}#fr2en"] = 0.5
    out, report = build_sft_mixture(
        recs, registry, dirset,
        spec(per_direction_max=2, reverse_total_retention=0.0),
        scores=scores,
    )
    # ties at 0.9 break by ascending id; the 0.2 and 0.5 candidates lose
    assert [pe.id for pe in out] == ["m00001#en2fr", "m00002#en2fr"]


def test_missing_score_raises(registry, dirset):
    recs = records(2, ["en", "fr"])
    with pytest.raises(MissingScore):
        build_sft_mixture(recs, registry, dirset, spec(), scores={"m00000#en2fr": 0.5})


def test_below_min_warns(registry, dirset):
    recs = records(3, ["en", "fr"])
    out, report = build_sft_mixture(
        recs, registry, dirset, spec(per_direction_min=10, per_direction_max=20)
    )
    assert any("en->fr" in w for w in report.warnings)


def test_pmp_requires_aux_sentence_in_record(registry, dirset):
    # en<->bg has auxiliary ru, but the records carry no ru sentence, so a
    # forced PMP coin (share 1.0) still falls back to STP.
    recs = records(20, ["en", "bg"])
    out, _ = build_sft_mixture(
        recs, registry, dirset,
        spec(forward_pmp_share=1.0, reverse_total_retention=1.0,
             reverse_pmp_share_of_retained=1.0),
    )
    assert out and all(pe.format is PromptFormat.STP for pe in out)


def test_pmp_rendered_when_aux_present(registry, dirset):
    recs = records(20, ["en", "bg", "ru"])
    out, report = build_sft_mixture(
        recs, registry, dirset,
        spec(forward_pmp_share=1.0, reverse_total_retention=0.0),
    )
    en2bg = [pe for pe in out if pe.id.endswith("#en2bg")]
    assert len(en2bg) == 20
    assert all(pe.format is PromptFormat.PMP and pe.aux_lang == "ru" for pe in en2bg)
    # en<->ru has no auxiliary: always STP even with share 1.0
    en2ru = [pe for pe in out if pe.id.endswith("#en2ru")]
    assert en2ru and all(pe.format is PromptFormat.STP for pe in en2ru)
    rep = report.per_direction["en->bg"]
    assert (rep.stp, rep.pmp) == (0, 20)


def test_center_pair_is_reverse_and_stp_only(registry, dirset):
    recs = records(30, ["en", "zh"])
    out, report = build_sft_mixture(
        recs, registry, dirset,
        spec(reverse_total_retention=0.5, reverse_pmp_share_of_retained=1.0),
    )
    assert all(pe.format is PromptFormat.STP for pe in out)
    rep = report.per_direction["en->zh"]
    assert 0 < rep.retained < rep.selected  # retention applied to en->zh


def test_format_coin_independent_of_retention_coin():
    # Same id, different hash domains. Values frozen from the definition.
    assert unit_uniform(42, "ex1#fr2en") == pytest.approx(0.9966048412184664, abs=0)
    assert unit_uniform(42, "fmt:ex1#fr2en") == pytest.approx(0.6011327057212676, abs=0)


def test_emission_grouped_by_direction_and_sorted_by_id(registry, dirset):
    recs = records(6, ["en", "fr", "de"])
    out, _ = build_sft_mixture(
        recs, registry, dirset, spec(reverse_total_retention=1.0)
    )
    suffix_order = []
    for pe in out:
        sfx = pe.id.split("#", 1)[1]
        if sfx not in suffix_order:
            suffix_order.append(sfx)
    dirset_order = [d.id_tag[1:] for d in dirset.directions if d.id_tag[1:] in set(suffix_order)]
    assert suffix_order == dirset_order
    for sfx in suffix_order:
        ids = [pe.id for pe in out if pe.id.endswith("#" + sfx)]
        assert ids == sorted(ids)


def test_deterministic_across_runs(registry, dirset):
    recs = records(40, ["en", "zh", "bg", "ru"])
    out1, rep1 = build_sft_mixture(recs, registry, dirset, spec())
    out2, rep2 = build_sft_mixture(recs, registry, dirset, spec())
    assert [pe.to_json() for pe in out1] == [pe.to_json() for pe in out2]
    assert rep1.as_dict() == rep2.as_dict()


def test_report_arithmetic(registry, dirset):
    recs = records(25, ["en", "ja"])
    out, report = build_sft_mixture(
        recs, registry, dirset, spec(per_direction_max=10)
    )
    rep_f = report.per_direction["en->ja"]
    rep_r = report.per_direction["ja->en"]
    assert rep_f.candidates == rep_r.candidates == 25
    assert rep_f.selected == rep_r.selected == 10
    assert rep_f.retained == 10  # forward: no retention
    assert rep_r.retained <= 10
    assert rep_f.stp + rep_f.pmp == rep_f.retained
    assert report.emitted == len(out)
    d = report.as_dict()
    assert d["emitted"] == len(out)


def test_custom_registry_mixture(tmp_path):
    import json

    from mmtkit.registry import load_registry

    rows = [
        {"code": c, "name": c.upper(), "script": "L", "family": "F", "tier": "High"}
        for c in ("en", "zh", "aa", "bb")
    ]
    langs = tmp_path / "langs.jsonl"
    langs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    aux = tmp_path / "aux.jsonl"
    aux.write_text(json.dumps({"lang": "aa", "aux": "bb"}) + "\n", encoding="utf-8")
    reg = load_registry(str(langs), str(aux))
    ds = enumerate_directions(reg)
    recs = records(10, ["en", "aa", "bb"])
    out, _ = build_sft_mixture(
        recs, reg, ds, spec(forward_pmp_share=1.0, reverse_total_retention=0.0)
    )
    en2aa = [pe for pe in out if pe.id.endswith("#en2aa")]
    assert en2aa and all(pe.aux_lang == "bb" for pe in en2aa)


def test_below_min_logs_one_warning_line(registry, dirset, capsys):
    recs = records(3, ["en", "fr"])
    _, report = build_sft_mixture(recs, registry, dirset, spec(per_direction_min=10))
    assert len(report.warnings) == dirset.direction_count == 234
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("WARNING mmtkit.mixture: 234 of 234 directions below per_direction_min=10; first: ")
    assert line.endswith(report.warnings[0])


def test_scored_selection_past_twice_the_cap_matches_brute_force(registry, dirset):
    cap = 3
    recs = records(40, ["en", "fr"])
    # Scores rounded to one decimal, so many candidates tie and the id breaks them.
    scores = {
        f"{r.id}#{sfx}": round(unit_uniform(7, f"{r.id}#{sfx}"), 1)
        for r in recs for sfx in ("en2fr", "fr2en")
    }
    out, report = build_sft_mixture(
        recs, registry, dirset,
        spec(per_direction_max=cap, reverse_total_retention=1.0), scores=scores,
    )
    for sfx, name in (("en2fr", "en->fr"), ("fr2en", "fr->en")):
        cands = [f"{r.id}#{sfx}" for r in recs]
        best = sorted(cands, key=lambda i: (-scores[i], i))[:cap]
        assert [pe.id for pe in out if pe.id.endswith("#" + sfx)] == sorted(best)
        assert (report.per_direction[name].candidates, report.per_direction[name].selected) == (40, cap)


@settings(max_examples=60)
@given(
    ids=st.lists(st.text(alphabet="ab!#~", min_size=1, max_size=4), min_size=1, max_size=30, unique=True),
    cap=st.integers(1, 4),
    data=st.data(),
)
def test_scored_selection_with_tied_scores_matches_brute_force(registry, dirset, ids, cap, data):
    # Few scores, 0.0 and -0.0 among them, so runs of ties are long and reach
    # across the cap; ids such as "a" and "a!" order differently alone than
    # with the direction's "#en2fr" after them, and only the example id counts.
    recs = [MultiWayRecord(id=i, sentences={"en": f"en {i}", "fr": f"fr {i}"}) for i in ids]
    cands = {sfx: [f"{i}#{sfx}" for i in ids] for sfx in ("en2fr", "fr2en")}
    tie = st.sampled_from([0.0, -0.0, 0.5, 1.0])
    scores = {ex_id: data.draw(tie) for sfx in cands for ex_id in cands[sfx]}
    out, report = build_sft_mixture(
        recs, registry, dirset, spec(per_direction_max=cap, reverse_total_retention=1.0), scores=scores
    )
    for sfx, name in (("en2fr", "en->fr"), ("fr2en", "fr->en")):
        best = sorted(cands[sfx], key=lambda i: (-scores[i], i))[:cap]
        assert [pe.id for pe in out if pe.id.endswith("#" + sfx)] == sorted(best)
        assert report.per_direction[name].selected == len(best)


def test_unscored_selection_past_twice_the_cap_keeps_corpus_order(registry, dirset):
    # Descending ids, so corpus order differs from id order.
    recs = records(20, ["en", "fr"])[::-1]
    out, report = build_sft_mixture(recs, registry, dirset, spec(per_direction_max=3))
    fwd_ids = [pe.id for pe in out if pe.id.endswith("#en2fr")]
    assert fwd_ids == ["m00017#en2fr", "m00018#en2fr", "m00019#en2fr"]
    assert report.per_direction["en->fr"].candidates == 20


def test_scored_selection_memory_bounded_by_cap(registry, dirset):
    n = 10_000
    scores = {f"m{i:05d}#{sfx}": unit_uniform(3, f"{i}{sfx}") for i in range(n) for sfx in ("en2fr", "fr2en")}

    def lazy_records():
        for i in range(n):
            yield MultiWayRecord(id=f"m{i:05d}", sentences={"en": f"en text {i}", "fr": f"fr text {i}"})

    tracemalloc.start()
    try:
        out, report = build_sft_mixture(
            lazy_records(), registry, dirset, spec(per_direction_max=2), scores=scores
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.per_direction["en->fr"].candidates == n
    assert report.per_direction["en->fr"].selected == 2
    assert peak < 1_000_000


@pytest.mark.parametrize("field", ["per_direction_min", "per_direction_max"])
@pytest.mark.parametrize("value", [2.5, True, "3"])
def test_spec_refuses_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        MixtureSpec(**{"per_direction_min": 0, field: value})


@pytest.mark.parametrize(
    "field", ["forward_pmp_share", "reverse_total_retention", "reverse_pmp_share_of_retained"]
)
@pytest.mark.parametrize("value", [True, "0.5", None])
def test_spec_refuses_non_number_shares(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        MixtureSpec(**{field: value})


_MIX_LANGS = ("en", "zh", "fr", "bg", "ru", "sw", "ja")
# Any non-empty text with a UTF-8 form: multi-byte, control and JSON-escaped
# characters included.
_mix_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)


@st.composite
def _mix_records(draw):
    n = draw(st.integers(0, 8))
    return [
        MultiWayRecord(f"r{i}", {lang: draw(_mix_text) for lang in draw(st.lists(st.sampled_from(_MIX_LANGS), unique=True))})
        for i in range(n)
    ]


@settings(max_examples=60)
@given(
    recs=_mix_records(),
    cap=st.integers(1, 4),
    share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 3),
    scored=st.booleans(),
)
def test_mixture_prompts_hold_their_record_sentences(registry, dirset, recs, cap, share, seed, scored):
    """mix renders each prompt straight from its record, unchecked: each
    loss slice is the record's target sentence, aux_lang is set exactly for
    PMP, a PMP text holds the record's auxiliary sentence, and read_prompted
    gives the written lines back as the same records."""
    by_id = {r.id: r for r in recs}
    scores = None
    if scored:
        scores = {ex.id: unit_uniform(seed, ex.id) for r in recs for ex in expand(r, dirset)}
    s = spec(per_direction_max=cap, forward_pmp_share=share, reverse_total_retention=1.0,
             reverse_pmp_share_of_retained=share, seed=seed)
    prompted, report = build_sft_mixture(recs, registry, dirset, s, scores=scores)
    assert len(prompted) == report.emitted
    for pe in prompted:
        rec_id, suffix = pe.id.split("#")
        sentences = by_id[rec_id].sentences
        assert suffix == f"{pe.src_lang}2{pe.tgt_lang}"
        assert pe.text.encode("utf-8")[pe.loss_start : pe.loss_end] == sentences[pe.tgt_lang].encode("utf-8")
        assert pe.loss_end == len(pe.text.encode("utf-8"))
        assert f"{registry.language(pe.src_lang).name}: {sentences[pe.src_lang]}\n" in pe.text
        assert (pe.aux_lang is not None) == (pe.format is PromptFormat.PMP)
        if pe.format is PromptFormat.PMP:
            assert pe.aux_lang == registry.auxiliary_for(pe.src_lang, pe.tgt_lang)
            assert f"\n{registry.language(pe.aux_lang).name}: {sentences[pe.aux_lang]}\n" in pe.text
        else:
            assert pe.format is PromptFormat.STP
    buf = io.StringIO()
    write_jsonl(prompted, buf)
    assert list(read_prompted(io.StringIO(buf.getvalue()), path="mix.pjsonl")) == prompted
