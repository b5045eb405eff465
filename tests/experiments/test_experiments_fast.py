"""Fast smoke runs of every experiment module.

Each experiment runs at very small scale; these tests assert the
*structural* contract (tables render, series have the right axes) and
the most robust shape claims.  Full-scale claim checks are `runall`'s
(CI's "Shape claims" step).
"""

import pytest

from repro.analysis.report import render_claims
from repro.experiments import (
    fig2_breakdown,
    fig3_zipf,
    fig7_prediction,
    fig9_waittime,
    table2_idle,
)

FAST_APPS = ("wordcount", "wordpostag", "accesslogsum")


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_breakdown.run(scale=0.02, apps=FAST_APPS)

    def test_renders(self, result):
        text = result.render()
        assert "wordcount" in text and "sort" in text

    def test_wordcount_framework_dominates(self, result):
        assert result.breakdowns["wordcount"].user_share < 0.5

    def test_wordpostag_user_dominates(self, result):
        assert result.breakdowns["wordpostag"].user_share > 0.5

    def test_claims_render(self, result):
        assert "paper-vs-measured" in render_claims(result.claims)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2_idle.run(scale=0.02, apps=FAST_APPS)

    def test_wordpostag_support_mostly_idle(self, result):
        assert result.reports["wordpostag"].support_idle_pct > 70

    def test_wordpostag_map_never_idle(self, result):
        assert result.reports["wordpostag"].map_idle_pct < 10

    def test_renders(self, result):
        assert "support idle" in result.render()


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_zipf.run(scale=0.05)

    def test_alpha_in_zipf_range(self, result):
        assert 0.5 <= result.fitted_alpha <= 1.5

    def test_frequencies_monotone(self, result):
        freqs = result.frequencies
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))

    def test_all_claims_hold(self, result):
        assert all(c.holds for c in result.claims), render_claims(result.claims)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7_prediction.run(scale=0.04, buffer_sizes=(16, 64, 256))

    def test_ideal_upper_bounds_spacesaving(self, result):
        for ss, ideal in zip(result.text.spacesaving, result.text.ideal):
            assert ss <= ideal + 1e-9

    def test_lru_below_spacesaving_somewhere(self, result):
        assert any(
            lru < ss for lru, ss in zip(result.text.lru, result.text.spacesaving)
        )

    def test_fractions_valid(self, result):
        for curve in (result.text, result.log):
            for series in (curve.spacesaving, curve.ideal, curve.lru):
                assert all(0.0 <= v <= 1.0 for v in series)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9_waittime.run(scale=0.02, apps=("wordcount",))

    def test_spillmatcher_removes_most_wait(self, result):
        assert result.wait_removed["wordcount"] > 50.0

    def test_renders(self, result):
        assert "spill-matcher" in result.render()
