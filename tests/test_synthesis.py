"""Synthesis planning: direct, pivot, failure budget, inference strategies."""
from __future__ import annotations

import pytest

from mmtkit.backends import Backend, DictionaryBackend, IdentityBackend
from mmtkit.directions import Direction
from mmtkit.errors import BackendError, EmptySource, InvalidInput, NoAuxiliaryDefined
from mmtkit.prompts import InferenceStrategy, PromptFormat, build_inference_prompt
from mmtkit.records import Provenance
from mmtkit.synthesis import SynthStats, synth_direct, synth_pivot

EN_WORDS = ["water", "bread", "night", "stone", "bird"]
ZH = {w: f"zh_{w}" for w in EN_WORDS}
SW = {w: f"sw_{w}" for w in EN_WORDS}


def en2zh_backend():
    return DictionaryBackend({("en", "zh"): ZH})


def test_synth_direct(mk_example):
    backend = DictionaryBackend({("en", "sw"): SW})
    mono = [("m1", "water bread"), ("m2", "night")]
    out = list(synth_direct(mono, backend, Direction("en", "sw")))
    assert [ex.id for ex in out] == ["m1#en2sw", "m2#en2sw"]
    assert out[0].src == "water bread" and out[0].tgt == "sw_water sw_bread"
    assert all(ex.provenance is Provenance.SYNTH_DIRECT for ex in out)
    assert all(ex.src_lang == "en" and ex.tgt_lang == "sw" for ex in out)


def test_synth_direct_requires_center_source():
    with pytest.raises(ValueError):
        list(synth_direct([], IdentityBackend(), Direction("sw", "zh")))


def test_synth_direct_skips_failures_within_budget():
    backend = DictionaryBackend({("en", "sw"): SW})
    mono = [(f"m{i}", "water") for i in range(10)]
    mono[3] = ("m3", "unknownword")  # 1 of 10 fails: exactly at the budget edge
    out = list(synth_direct(mono, backend, Direction("en", "sw")))
    assert len(out) == 9
    assert "m3#en2sw" not in {ex.id for ex in out}


def test_synth_direct_aborts_over_budget():
    backend = DictionaryBackend({("en", "sw"): SW})
    mono = [(f"m{i}", "water") for i in range(20)]
    for i in (1, 5, 9):
        mono[i] = (f"m{i}", "unknownword")  # 3 of 20 > 10%
    with pytest.raises(BackendError) as exc:
        list(synth_direct(mono, backend, Direction("en", "sw")))
    assert "3/20" in str(exc.value)


def test_synth_direct_empty_text_counts_as_failure():
    backend = DictionaryBackend({("en", "sw"): SW})
    out = list(synth_direct([("m0", ""), ("m1", "water")] + [(f"k{i}", "bird") for i in range(8)],
                            backend, Direction("en", "sw")))
    assert len(out) == 9


def test_synth_pivot_both_orientations(mk_example):
    pairs = [
        mk_example("p1#en2sw", "en", "sw", "water bread", "sw_water sw_bread"),
        mk_example("p2#sw2en", "sw", "en", "sw_night", "night"),
    ]
    out = list(synth_pivot(pairs, en2zh_backend()))
    assert [ex.id for ex in out] == [
        "p1#en2sw#zh2sw", "p1#en2sw#sw2zh", "p2#sw2en#zh2sw", "p2#sw2en#sw2zh",
    ]
    zh2sw = out[0]
    assert zh2sw.src_lang == "zh" and zh2sw.tgt_lang == "sw"
    assert zh2sw.src == "zh_water zh_bread" and zh2sw.tgt == "sw_water sw_bread"
    sw2zh = out[1]
    assert sw2zh.src == "sw_water sw_bread" and sw2zh.tgt == "zh_water zh_bread"
    assert all(ex.provenance is Provenance.SYNTH_PIVOT for ex in out)
    # the second pair entered in x->en orientation; outputs mirror the same texts
    assert out[3].src == "sw_night" and out[3].tgt == "zh_night"


def test_synth_pivot_rejects_bad_inputs(mk_example):
    with pytest.raises(ValueError):
        list(synth_pivot([mk_example("p#fr2de?", "fr", "zh", "a", "b")], en2zh_backend()))
    with pytest.raises(ValueError):
        list(synth_pivot([mk_example("p#en2zh", "en", "zh", "a", "b")], en2zh_backend()))


def test_synth_pivot_budget(mk_example):
    pairs = [mk_example(f"p{i}#en2sw", "en", "sw", "water", "sw_water") for i in range(20)]
    pairs[0] = mk_example("p0#en2sw", "en", "sw", "mystery", "sw_water")
    out = list(synth_pivot(pairs, en2zh_backend()))
    assert len(out) == 38  # one failed input pair, two outputs for each of 19
    bad = [mk_example(f"q{i}#en2sw", "en", "sw", "mystery", "x") for i in range(3)]
    with pytest.raises(BackendError):
        list(synth_pivot(bad + pairs[1:], en2zh_backend()))


def test_synth_stats_complete_after_the_stream():
    backend = DictionaryBackend({("en", "sw"): SW})
    mono = [("m0", ""), ("m1", "unknownword")] + [(f"k{i}", "bird") for i in range(18)]
    stats = SynthStats()
    out = synth_direct(mono, backend, Direction("en", "sw"), stats)
    assert len(list(out)) == 18
    assert stats == SynthStats(items=20, failed=2)


class RecordingBackend(Backend):
    def __init__(self):
        self.calls = []

    def translate(self, item_id, src_lang, tgt_lang, text):
        self.calls.append(item_id)
        return f"zh {text}"


def test_synth_pivot_skips_empty_en_side_without_a_request(mk_example):
    pairs = [mk_example(f"p{i}#en2sw", "en", "sw", f"en {i}", f"sw {i}") for i in range(10)]
    pairs[4] = mk_example("p4#sw2en", "sw", "en", "sw 4", "")
    backend, stats = RecordingBackend(), SynthStats()
    out = list(synth_pivot(pairs, backend, stats))
    assert "p4#sw2en" not in backend.calls and len(backend.calls) == 9
    assert len(out) == 18 and stats == SynthStats(items=10, failed=1)


def test_pivot_composes_with_direct_dictionary_oracle(mk_example):
    # Build sw->zh by composing sw->en and en->zh; the pivot output must match.
    inv_sw = {v: k for k, v in SW.items()}
    composed = {sw_word: ZH[en_word] for sw_word, en_word in inv_sw.items()}
    pairs = [
        mk_example(f"c{i}#en2sw", "en", "sw", w, SW[w]) for i, w in enumerate(EN_WORDS)
    ]
    pivoted = {ex.id: ex for ex in synth_pivot(pairs, en2zh_backend())}
    direct = DictionaryBackend({("sw", "zh"): composed})
    for i, w in enumerate(EN_WORDS):
        ex = pivoted[f"c{i}#en2sw#sw2zh"]
        assert ex.tgt == direct.translate("x", "sw", "zh", ex.src)


def test_inference_dt(registry):
    prompts = build_inference_prompt(InferenceStrategy.DT, "fr", "de", "bonjour", registry)
    assert len(prompts) == 1
    (p,) = prompts
    assert p.format is PromptFormat.STP
    assert p.id == "q0#fr2de"
    assert p.loss_start == p.loss_end == len(p.text.encode("utf-8"))


def test_inference_pt_two_hops_through_en(registry):
    backend = DictionaryBackend({("fr", "en"): {"eau": "water"}})
    prompts = build_inference_prompt(
        InferenceStrategy.PT, "fr", "de", "eau", registry, backend=backend, item_id="q3"
    )
    assert len(prompts) == 2
    first, second = prompts
    assert (first.src_lang, first.tgt_lang) == ("fr", "en")
    assert (second.src_lang, second.tgt_lang) == ("en", "de")
    assert first.id == "q3#fr2en" and second.id == "q3#en2de"
    assert "English: water\n" in second.text  # pivot text feeds the second hop
    assert all(p.loss_start == p.loss_end for p in prompts)


def test_inference_pt_rejects_en_endpoint(registry):
    with pytest.raises(ValueError):
        build_inference_prompt(InferenceStrategy.PT, "en", "de", "x", registry, backend=IdentityBackend())
    with pytest.raises(ValueError):
        build_inference_prompt(InferenceStrategy.PT, "fr", "en", "x", registry, backend=IdentityBackend())
    with pytest.raises(ValueError):
        build_inference_prompt(InferenceStrategy.PT, "fr", "de", "x", registry)


def test_inference_pmp_o(registry):
    prompts = build_inference_prompt(
        InferenceStrategy.PMP_O, "en", "bg", "water", registry, aux_text="voda-ru", item_id="q4"
    )
    (p,) = prompts
    assert p.format is PromptFormat.PMP
    assert p.aux_lang == "ru"
    assert "Russian: voda-ru\n" in p.text
    with pytest.raises(ValueError):
        build_inference_prompt(InferenceStrategy.PMP_O, "en", "bg", "water", registry)


def test_inference_pmp_s_backend_builds_aux(registry):
    backend = DictionaryBackend({("en", "ru"): {"water": "вода"}})
    prompts = build_inference_prompt(
        InferenceStrategy.PMP_S, "en", "bg", "water", registry, backend=backend, item_id="q5"
    )
    (p,) = prompts
    assert p.aux_lang == "ru"
    assert "Russian: вода\n" in p.text
    with pytest.raises(ValueError):
        build_inference_prompt(InferenceStrategy.PMP_S, "en", "bg", "water", registry)


def test_inference_pmp_requires_auxiliary(registry):
    with pytest.raises(NoAuxiliaryDefined):
        build_inference_prompt(
            InferenceStrategy.PMP_O, "en", "fr", "x", registry, aux_text="y"
        )
    with pytest.raises(NoAuxiliaryDefined):
        build_inference_prompt(
            InferenceStrategy.PMP_S, "en", "zh", "x", registry, backend=IdentityBackend()
        )


@pytest.mark.parametrize(
    "strategy, src_lang, tgt_lang, problem",
    [
        (InferenceStrategy.DT, "fr", "fr", "direction with identical sides: 'fr'"),
        (InferenceStrategy.PT, "fr", "fr", "direction with identical sides: 'fr'"),
        (InferenceStrategy.PMP_O, "fr", "de", "direction fr->de does not involve a center language"),
        (InferenceStrategy.PMP_S, "fr", "de", "direction fr->de does not involve a center language"),
    ],
)
def test_inference_refuses_unsupported_direction(registry, strategy, src_lang, tgt_lang, problem):
    with pytest.raises(InvalidInput) as exc:
        build_inference_prompt(
            strategy, src_lang, tgt_lang, "x", registry, backend=IdentityBackend(), aux_text="y"
        )
    assert str(exc.value) == problem


def test_inference_pmp_s_refuses_empty_source_before_the_backend(registry):
    backend = RecordingBackend()
    with pytest.raises(EmptySource) as exc:
        build_inference_prompt(InferenceStrategy.PMP_S, "en", "bg", "", registry, backend=backend, item_id="q6")
    assert str(exc.value) == "item 'q6#en2bg' has an empty source"
    assert backend.calls == []


def test_strategy_values():
    assert {s.value for s in InferenceStrategy} == {"dt", "pt", "pmp-o", "pmp-s"}
    assert InferenceStrategy("pmp-o") is InferenceStrategy.PMP_O
