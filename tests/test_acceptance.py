"""Acceptance gate: the fourteen criteria at desk scale, one line each.

Runs every verification suite once (session-scoped) at the default
configuration and asserts each criterion's checks at their pinned
thresholds.  A criterion's checks are the rows of ``suites.CHECKS`` named
after it (``AC9`` is ``AC9a`` and ``AC9b``).  Run with
``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion.
"""

import re
from collections import Counter

import pytest

from axbkit.config import RunConfig
from axbkit.suites import CHECKS, SUITES

#: criterion id -> the suite that emits its checks
CRITERIA = {
    "AC1": "group", "AC2": "partition", "AC3": "partition", "AC4": "spectral",
    "AC5": "spectral", "AC6": "paleywiener", "AC7": "paleywiener", "AC8": "smoothing",
    "AC9": "smoothing", "AC10": "kfunctional", "AC11": "besov", "AC12": "jackson",
    "AC13": "halfplane", "AC14": "determinism",
}


@pytest.fixture(scope="session")
def suite_results(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acceptance_reports"))
    cfg = RunConfig(out_dir=out)
    return {name: SUITES[name](cfg) for name in sorted(SUITES)}


@pytest.mark.parametrize("cid", sorted(CRITERIA, key=lambda c: int(c[2:])))
def test_criterion(cid, suite_results):
    rows = [row for row in CHECKS if re.fullmatch(rf"{cid}[a-z]?", row)]
    assert rows, f"no checks found for {cid}"
    checks = {c["id"]: c for c in suite_results[CRITERIA[cid]]["checks"]}
    assert set(rows) <= set(checks), f"{cid}: not emitted by {CRITERIA[cid]}"
    passed = all(checks[row]["passed"] for row in rows)
    detail = "; ".join(f"{row}: {CHECKS[row][0]} [{checks[row]['value']:.3g} {CHECKS[row][1]} "
                       f"{checks[row]['threshold']:.3g}]" for row in rows)
    print(f"{cid} {'PASS' if passed else 'FAIL'}: {detail}")
    for row in rows:
        c = checks[row]
        assert c["passed"], f"{cid}/{row}: value {c['value']} vs threshold {c['threshold']}"


@pytest.mark.xfail(strict=True, reason="open: AC10a = AC10c = 10.1378 against < 10 at seed 773 "
                                       "(ROADMAP item 1); no threshold, seed or corpus moves")
def test_ac10a_and_ac10c_hold_at_seed_773():
    checks = {c["id"]: c for c in SUITES["kfunctional"](RunConfig(seed=773))["checks"]}
    assert checks["AC10a"]["passed"] and checks["AC10c"]["passed"], (
        checks["AC10a"]["value"], checks["AC10c"]["value"])


@pytest.mark.xfail(strict=True, reason="open: SMOOTH_unit_mass = 8.03e-05, 2.75e-05 and 8.86e-06 "
                                       "against < 1e-06 at grid_n = 64, 128 and 256, the defect "
                                       "shrinking with the grid step (ROADMAP item 1); no "
                                       "threshold, node window or grid moves")
@pytest.mark.parametrize("grid_n", [64, 128, 256])
def test_smooth_unit_mass_holds_at_grid_n(grid_n):
    checks = {c["id"]: c for c in SUITES["smoothing"](RunConfig(grid_n=grid_n))["checks"]}
    assert checks["SMOOTH_unit_mass"]["passed"], checks["SMOOTH_unit_mass"]["value"]


def test_every_emitted_check_has_exactly_one_row(suite_results):
    emitted = Counter(c["id"] for payload in suite_results.values() for c in payload["checks"])
    assert [cid for cid, n in emitted.items() if n > 1] == []
    assert sorted(emitted) == sorted(CHECKS)


def test_full_suite_summary(suite_results):
    bad = [name for name, payload in suite_results.items() if not payload["all_passed"]]
    print(f"suites run: {sorted(suite_results)}; failing: {bad or 'none'}")
    assert not bad
