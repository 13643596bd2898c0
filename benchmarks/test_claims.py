"""The paper's evaluation: every claim in the registry must hold.

One test per row of :data:`repro.analysis.claims.CLAIMS` (Table 1,
Figure 2, P1-P4, A1-A3): it runs the claim's experiment at the size
``REPRO_SMOKE`` selects, prints what ``repro claims`` prints, and
requires that no predicate failed.  Table 1 must also render exactly
as the paper's symbols read.
"""

import pytest

from repro.analysis.claims import CLAIMS

TABLE_1 = """\
Defense        GC  Timing  Trimming  Recovery  Forensics
--------------------------------------------------------
LocalSSD        ✗       ✗         ✗         ❍          ✗
Unveil          ✗       ✗         ✗         ❍          ✗
CryptoDrop      ✗       ✗         ✗         ❍          ✗
CloudBackup     ✗       ✔         ✗         ◗          ✗
ShieldFS        ✗       ✗         ✗         ◗          ✗
JFS             ✗       ✗         ✗         ◗          ✗
FlashGuard      ✔       ✗         ✗         ◗          ✗
TimeSSD         ✔       ✗         ✗         ◗          ✗
SSDInsider      ✗       ✗         ✗         ◗          ✗
RBlocker        ✗       ✗         ✗         ◗          ✗
RSSD            ✔       ✔         ✔         ●          ✔"""


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
def test_claim_holds(claim):
    result = claim.run()
    table = claim.render(result)
    print(f"\n[{claim.id}] {claim.title}\n{table}")
    assert claim.check(result) == []
    if claim.id == "T1":
        assert table == TABLE_1
