"""Table 1's grading rules: how a recovery fraction becomes a symbol.

A (defense, attack) measurement is the fraction of victim pages whose
pre-attack version the defense can still produce after the attack.
The paper's Table 1 grades it twice:

* per attack, ``✔`` / ``✗`` (:func:`attack_symbol`): whether the
  defense recovers enough of the data to count, partial
  CloudBackup-style recovery included;
* per defense, ``●`` / ``◗`` / ``❍`` for full, partial or no recovery
  (:func:`recovery_grade` for one fraction, :func:`row_grade` across
  every attack a defense was scored on).

The measurements come from the campaign engine, and
:mod:`repro.analysis.claims` renders Table 1 with these rules.
"""

from __future__ import annotations

from typing import Iterable

#: Recovery fraction at or above which an attack counts as "defended".
DEFENDED_THRESHOLD = 0.99
#: Recovery fraction at or above which CloudBackup-style partial recovery
#: still counts as a meaningful defense (the paper's half-filled circles).
PARTIAL_THRESHOLD = 0.50


def recovery_grade(fraction: float) -> str:
    """Map a recovery fraction to the paper's ● / ◗ / ❍ symbols."""
    if fraction >= DEFENDED_THRESHOLD:
        return "●"
    if fraction >= 0.05:
        return "◗"
    return "❍"


def attack_symbol(fraction: float) -> str:
    """✔ when the attack was defended, possibly partially (backups)."""
    return "✔" if fraction >= PARTIAL_THRESHOLD else "✗"


def row_grade(fractions: Iterable[float]) -> str:
    """Overall recovery grade of a defense across the attacks it faced.

    ``●`` means every attack was fully recoverable, ``◗`` means at
    least one attack was (partially) recoverable, ``❍`` means the
    defense could not restore anything for any attack.
    """
    fractions = list(fractions)
    if min(fractions) >= DEFENDED_THRESHOLD:
        return "●"
    return "❍" if recovery_grade(max(fractions)) == "❍" else "◗"
