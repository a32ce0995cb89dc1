"""Targeted tests for the rules added in the Mead & Conway audit.

The original checker covered widths, same-layer spacing, and contact
size/coverage; the audit added poly-to-diffusion spacing, contact
spacing, implant overlap of depletion gates, and poly gate extension.
"""

from repro.layout.design_rules import (
    LAMBDA_RULES,
    CellGeometry,
    DesignRuleChecker,
)
from repro.layout.geometry import Rect
from repro.layout.layers import Layer


def _channels(poly, diff, contacts=()):
    return CellGeometry({
        Layer.POLY: poly, Layer.DIFFUSION: diff, Layer.CONTACT: contacts,
    }).channels


def _rules_hit(rects_by_layer, rule):
    checker = DesignRuleChecker()
    return [v for v in checker.check(rects_by_layer) if v.rule == rule]


class TestPolyDiffSpacing:
    def test_touching_unrelated_shapes_violate(self):
        rects = {
            Layer.POLY: [Rect(0, 0, 4, 2)],
            Layer.DIFFUSION: [Rect(0, 2, 4, 4)],
        }
        assert len(_rules_hit(rects, "poly-diff-spacing")) == 1

    def test_one_lambda_gap_is_legal(self):
        rects = {
            Layer.POLY: [Rect(0, 0, 4, 2)],
            Layer.DIFFUSION: [Rect(0, 3, 4, 5)],
        }
        assert _rules_hit(rects, "poly-diff-spacing") == []

    def test_transistor_crossing_is_exempt(self):
        rects = {
            Layer.POLY: [Rect(0, 4, 10, 6)],
            Layer.DIFFUSION: [Rect(4, 0, 6, 10)],
        }
        assert _rules_hit(rects, "poly-diff-spacing") == []


class TestContactSpacing:
    def test_one_lambda_apart_violates(self):
        rects = {Layer.CONTACT: [Rect(0, 0, 2, 2), Rect(3, 0, 5, 2)]}
        assert len(_rules_hit(rects, "contact-spacing")) == 1

    def test_two_lambda_apart_is_legal(self):
        rects = {Layer.CONTACT: [Rect(0, 0, 2, 2), Rect(4, 0, 6, 2)]}
        assert _rules_hit(rects, "contact-spacing") == []


class TestImplantGateOverlap:
    def _gate(self, implant):
        return {
            Layer.POLY: [Rect(0, 4, 10, 6)],
            Layer.DIFFUSION: [Rect(4, 0, 6, 10)],
            Layer.IMPLANT: [implant],
        }

    def test_skimpy_implant_violates(self):
        rects = self._gate(Rect(3, 3, 7, 7))  # covers channel, 1-lambda lip
        assert len(_rules_hit(rects, "implant-gate-overlap")) == 1

    def test_full_blanket_is_legal(self):
        rects = self._gate(Rect(2, 2, 8, 8))  # channel plus 2 on every side
        assert _rules_hit(rects, "implant-gate-overlap") == []

    def test_enhancement_gate_needs_no_implant(self):
        rects = {
            Layer.POLY: [Rect(0, 4, 10, 6)],
            Layer.DIFFUSION: [Rect(4, 0, 6, 10)],
        }
        assert _rules_hit(rects, "implant-gate-overlap") == []


class TestGateExtension:
    def test_flush_poly_violates(self):
        rects = {
            Layer.POLY: [Rect(3, 4, 7, 6)],  # only 1 past the channel
            Layer.DIFFUSION: [Rect(4, 0, 6, 10)],
        }
        assert len(_rules_hit(rects, "gate-extension")) == 1

    def test_two_lambda_overhang_is_legal(self):
        rects = {
            Layer.POLY: [Rect(2, 4, 8, 6)],
            Layer.DIFFUSION: [Rect(4, 0, 6, 10)],
        }
        assert _rules_hit(rects, "gate-extension") == []


class TestGateChannels:
    def test_butting_contact_suppresses_channel(self):
        poly = [Rect(0, 4, 10, 6)]
        diff = [Rect(4, 0, 6, 10)]
        assert len(_channels(poly, diff)) == 1
        assert _channels(poly, diff, [Rect(4, 4, 6, 6)]) == []

    def test_merged_overlaps_are_one_device(self):
        # Two overlapping poly shapes crossing one diffusion: one channel.
        poly = [Rect(0, 4, 6, 6), Rect(4, 4, 10, 6)]
        diff = [Rect(4, 0, 6, 10)]
        assert len(_channels(poly, diff)) == 1


class TestRuleTable:
    def test_audit_rules_present_with_conservative_values(self):
        assert LAMBDA_RULES["poly-diff-spacing"] == 1
        assert LAMBDA_RULES["contact-spacing"] == 2
        assert LAMBDA_RULES["implant-gate-overlap"] == 2
        assert LAMBDA_RULES["gate-extension"] == 2

    def test_generated_cells_stay_clean(self):
        from repro.layout.cells import cell_bundle

        checker = DesignRuleChecker()
        for kind in ("comparator", "accumulator"):
            for pos in (True, False):
                layout = cell_bundle(kind, pos).layout
                assert checker.check(layout.rects) == []
