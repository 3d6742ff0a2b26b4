"""Tests for the semi-analytic reliability models."""

import math

import pytest

from repro.codes import ReedSolomonCode, SinglyExtendedRS
from repro.reliability import build_model
from repro.reliability.analytic import rs_decodable_fraction
from repro.schemes import ConventionalIecc, Duo, NoEcc, PairScheme, RankSecDed, Xed

SAMPLES = 250  # sizes the bit-code tables; RS conditionals are closed forms


@pytest.fixture(scope="module")
def models():
    schemes = [NoEcc(), ConventionalIecc(), Xed(), Duo(), PairScheme()]
    return {s.name: build_model(s, samples=SAMPLES, seed=1) for s in schemes}


class TestFactory:
    def test_every_default_scheme_has_model(self, models):
        assert set(models) == {"no-ecc", "iecc-sec", "xed", "duo", "pair"}

    def test_rank_secded_supported(self):
        model = build_model(RankSecDed(), samples=SAMPLES)
        probs = model.line_probs(1e-5)
        assert probs["due"] > 0

    def test_unknown_scheme_rejected(self):
        class Fake:
            name = "fake"

        with pytest.raises(TypeError):
            build_model(Fake())


class TestSweep:
    @pytest.mark.parametrize("name", ["no-ecc", "iecc-sec", "xed", "duo", "pair"])
    def test_sweep_evaluates_each_ber_once(self, models, name, monkeypatch):
        model = models[name]
        bers = [1e-7, 1e-5, 1e-4, 1e-3]
        expected = [model.line_probs(p) for p in bers]
        calls = []
        line_probs = model.line_probs

        def counted(ber):
            calls.append(ber)
            return line_probs(ber)

        monkeypatch.setattr(model, "line_probs", counted)
        curves = model.sweep(bers)
        assert calls == bers
        assert list(curves["ber"]) == bers
        assert list(curves["sdc"]) == [row["sdc"] for row in expected]
        assert list(curves["due"]) == [row["due"] for row in expected]


class TestClosedForms:
    def test_no_ecc_exact(self, models):
        p = 1e-6
        expect = 1 - (1 - p) ** 512
        assert models["no-ecc"].line_probs(p)["sdc"] == pytest.approx(expect, rel=1e-6)

    def test_rs_decodable_fraction_values(self):
        # DUO RS(76,64) t=6: known to be ~1e-6 regime
        duo_frac = rs_decodable_fraction(76, 12, 6)
        assert 1e-8 < duo_frac < 1e-5
        # PAIR case A: n=255, r_eff=16, t=8
        pair_frac = rs_decodable_fraction(255, 16, 8)
        assert 1e-6 < pair_frac < 1e-4

    def test_fraction_monotone_in_t(self):
        assert rs_decodable_fraction(76, 12, 6) > rs_decodable_fraction(76, 12, 5)


class TestScaling:
    def test_xed_sdc_scales_quadratically(self, models):
        xed = models["xed"]
        s1 = xed.line_probs(1e-6)["sdc"]
        s2 = xed.line_probs(1e-5)["sdc"]
        assert s2 / s1 == pytest.approx(100, rel=0.05)

    def test_pair_failure_scales_ninth_power(self, models):
        pair = models["pair"]
        f1 = pair.line_probs(1e-5)
        f2 = pair.line_probs(1e-4)
        ratio = (f2["sdc"] + f2["due"]) / (f1["sdc"] + f1["due"])
        # ~p^9 scaling, softened by binomial higher-order terms at 1e-4
        assert 3e8 < ratio < 1.2e9

    def test_probabilities_monotone_in_ber(self, models):
        for model in models.values():
            prev = -1.0
            for p in (1e-7, 1e-6, 1e-5, 1e-4):
                probs = model.line_probs(p)
                fail = probs["sdc"] + probs["due"]
                assert fail >= prev
                prev = fail


class TestPaperOrdering:
    """The qualitative shape of figure F2."""

    def test_everything_beats_no_ecc(self, models):
        p = 1e-5
        base = models["no-ecc"].line_probs(p)["sdc"]
        for name in ("iecc-sec", "xed", "duo", "pair"):
            probs = models[name].line_probs(p)
            assert probs["sdc"] + probs["due"] < base

    def test_pair_crushes_xed(self, models):
        """>= 10^5x at the 1e-5 operating point, ~10^6-10^7 at 1e-4."""
        for p, floor in ((1e-5, 1e5), (1e-4, 1e6)):
            xed = models["xed"].line_probs(p)
            pair = models["pair"].line_probs(p)
            ratio = (xed["sdc"] + xed["due"]) / (pair["sdc"] + pair["due"])
            assert ratio > floor, f"p={p}"

    def test_pair_beats_duo_at_low_ber(self, models):
        p = 3e-6
        duo = models["duo"].line_probs(p)
        pair = models["pair"].line_probs(p)
        ratio = (duo["sdc"] + duo["due"]) / (pair["sdc"] + pair["due"])
        assert ratio > 5  # the paper's "~10x on average" regime

    def test_conventional_never_flags(self, models):
        assert models["iecc-sec"].line_probs(1e-4)["due"] == 0.0


class TestClosedFormRsModels:
    """DUO and PAIR conditionals come from closed forms, never from decodes."""

    # line_probs recorded when the RS tables were still measured and then
    # overwritten by the floor: the closed form must reproduce them exactly.
    GOLDEN = {
        "pair": {
            1e-7: (1.3027012449871201e-43, 4.847396645688056e-38),
            1e-4: (1.0874003882605785e-16, 4.046254668715716e-11),
            1e-3: (2.1698893563637726e-08, 0.008042735407540065),
        },
        "duo": {
            1e-7: (3.4792759610516223e-40, 4.5845353221486095e-34),
            1e-4: (3.3073370046600983e-19, 4.357976627852899e-13),
            1e-3: (2.0985980455356013e-12, 2.765258339508658e-06),
        },
    }

    @pytest.fixture(scope="class")
    def rs_schemes(self):
        return {"pair": PairScheme(), "duo": Duo()}

    def test_building_makes_no_decode(self, rs_schemes, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an RS model decoded a word")

        for cls in (ReedSolomonCode, SinglyExtendedRS):
            monkeypatch.setattr(cls, "decode", refuse)
            monkeypatch.setattr(cls, "decode_batch", refuse)
        for scheme in rs_schemes.values():
            build_model(scheme, samples=SAMPLES, seed=1)

    @pytest.mark.parametrize("name", ["pair", "duo"])
    def test_line_probs_match_golden(self, rs_schemes, name):
        model = build_model(rs_schemes[name], samples=SAMPLES, seed=1)
        for ber, (sdc, due) in self.GOLDEN[name].items():
            probs = model.line_probs(ber)
            assert probs["sdc"] == sdc, ber
            assert probs["due"] == due, ber

    @pytest.mark.parametrize("name", ["pair", "duo"])
    def test_table_length(self, rs_schemes, name):
        scheme = rs_schemes[name]
        model = build_model(scheme, samples=SAMPLES, seed=1)
        assert len(model._flag) == len(model._bad) == scheme.code.t + 9
        assert not model._flag[: scheme.code.t + 1].any()
        assert not model._bad[: scheme.code.t + 1].any()
