"""Tests for Table 1's grading rules."""

from repro.defenses.matrix import attack_symbol, recovery_grade, row_grade


class TestRecoveryGrade:
    def test_grading_thresholds(self):
        assert recovery_grade(1.0) == "●"
        assert recovery_grade(0.995) == "●"
        assert recovery_grade(0.5) == "◗"
        assert recovery_grade(0.06) == "◗"
        assert recovery_grade(0.0) == "❍"

    def test_attack_symbol_counts_partial_recovery(self):
        assert attack_symbol(1.0) == "✔"
        assert attack_symbol(0.5) == "✔"
        assert attack_symbol(0.49) == "✗"

    def test_row_grade_is_full_only_when_every_attack_is(self):
        assert row_grade([1.0, 0.995]) == "●"
        assert row_grade([1.0, 0.0]) == "◗"
        assert row_grade([0.06, 0.0]) == "◗"
        assert row_grade([0.04, 0.0]) == "❍"
