"""The check table, and the verdict rule: a check passes on its relation between value and threshold."""

import itertools
import math
import pathlib
import re

import numpy as np
import pytest

from axbkit import suites
from axbkit.config import RunConfig

#: verdicts for a value below, equal to and above the threshold
VERDICTS = {
    "<": (True, False, False),
    "<=": (True, True, False),
    ">": (False, False, True),
    ">=": (False, True, True),
}


def _row(monkeypatch, rule="<"):
    """Enter a check ``X`` with this relation and the unscaled threshold 1 into the table."""
    monkeypatch.setitem(suites.CHECKS, "X", ("x", rule, 1.0, "no"))
    return RunConfig()


@pytest.mark.parametrize("rule, expected", sorted(VERDICTS.items()))
def test_check_applies_its_relation(monkeypatch, rule, expected):
    cfg = _row(monkeypatch, rule)
    got = tuple(suites._check(cfg, "X", value)["passed"] for value in (0.5, 1.0, 2.0))
    assert got == expected


@pytest.mark.parametrize("rule", sorted(VERDICTS))
def test_nan_value_fails_every_relation(monkeypatch, rule):
    assert suites._check(_row(monkeypatch, rule), "X", math.nan)["passed"] is False


def test_side_condition_must_hold_as_well(monkeypatch):
    cfg = _row(monkeypatch)
    assert suites._check(cfg, "X", 0.5, also=False)["passed"] is False
    entry = suites._check(cfg, "X", 0.5, also=True, side=3)
    assert entry == {"id": "X", "description": "x", "value": 0.5, "threshold": 1.0,
                     "passed": True, "side": 3}


def test_unknown_relation_is_rejected(monkeypatch):
    with pytest.raises(KeyError):
        suites._check(_row(monkeypatch, "=="), "X", 0.5)


def test_every_check_states_its_relation():
    # a check's verdict is its row's relation between value and threshold, applied in
    # suites._check, and its threshold moves with tol_scale by one of the three rules
    assert len(suites.CHECKS) == 58
    for cid, (description, rule, threshold, scaling) in suites.CHECKS.items():
        assert description and isinstance(threshold, float), cid
        assert rule in suites._RULES and scaling in suites._SCALINGS, cid


def test_readme_threshold_table_matches_the_checks():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (AC\w+) \| `([<>=]+)` \| (\S+) \| (\w+) \|$", readme, re.MULTILINE)
    stated = {cid: (rule, float(threshold), scaling) for cid, rule, threshold, scaling in rows}
    assert len(stated) == len(rows)
    assert stated == {cid: (rule, threshold, scaling)
                      for cid, (_, rule, threshold, scaling) in suites.CHECKS.items()
                      if re.fullmatch(r"AC\d+[a-z]?", cid)}


def test_a_threshold_in_units_of_the_data_takes_its_factor():
    entry = suites._check(RunConfig(), "SPEC_positivity", 0.0, factor=4.0)
    assert entry["threshold"] == -4e-10 and entry["passed"]


@pytest.mark.parametrize("coarse_factor, passed", [(3.0, False), (1.2, True)])
def test_ac12c_gates_the_refinement_drift(monkeypatch, coarse_factor, passed):
    # both constants stay below the AC12 bound of 100, so only the drift
    # |fine / coarse - 1| against 0.5 can fail the check
    cfg = RunConfig(grid_n=64)
    fine = 20.0

    def jackson_check(sigmas, r, f, op, space):
        # the suite passes each grid's corpus as one stack: one report per member
        c_hat = fine if f.grid.n == cfg.grid_n else coarse_factor * fine
        return [{"C_hat": c_hat, "slope": -3.0, "errors": np.ones(len(sigmas))}] * len(f.values)

    monkeypatch.setattr(suites.pw, "jackson_check", jackson_check)
    checks = {c["id"]: c for c in suites.suite_jackson(cfg)["checks"]}
    assert checks["AC12a"]["passed"] and checks["AC12b"]["passed"]
    ac12c = checks["AC12c"]
    assert ac12c["coarse"] == coarse_factor * fine < 100
    assert ac12c["value"] == pytest.approx(abs(1.0 / coarse_factor - 1.0))
    assert ac12c["passed"] is passed


def test_suite_besov_builds_one_corpus_per_rung(monkeypatch):
    # the truncation bounds read the fine rung's own corpus, not a second build
    real = suites.build_corpus
    grids = []

    def counted(grid, *args, **kwargs):
        grids.append(grid.n)
        return real(grid, *args, **kwargs)

    monkeypatch.setattr(suites, "build_corpus", counted)
    suites.suite_besov(RunConfig(grid_n=64))
    assert grids == [64, 32]


@pytest.mark.parametrize("suite", ["partition", "spectral", "smoothing", "kfunctional", "besov",
                                   "jackson", "frames"])
def test_a_corpus_suite_builds_the_configured_corpus(monkeypatch, suite):
    name = "power_exp(alpha=1,beta=1)"  # analytic and decaying, so every corpus suite takes it
    real = suites.build_corpus
    asked = []

    def recorded(grid, names=None, **kwargs):
        asked.append(names)
        return real(grid, names=names, **kwargs)

    monkeypatch.setattr(suites, "build_corpus", recorded)
    suites.SUITES[suite](RunConfig(grid_n=64, corpus=(name,)))
    assert asked and all(names == (name,) for names in asked), asked


def _nan_jackson(reps, i=1):
    """The per-member Jackson reports of one stack with member ``i``'s ``C_hat`` NaN."""
    return [{**rep, "C_hat": math.nan} if k == i else rep for k, rep in enumerate(reps)]


def _nan_member(out, i=4):
    """The array group law's output with member ``i``'s ``b`` part NaN."""
    a, b = out
    b = np.array(b)
    b[i] = math.nan
    return a, b


def _fault(suite, owner, leaf, nth, spoil, failing, path=None):
    """A ``FAULTS`` row named ``<suite>-<path>``, the path being the leaf unless given."""
    return pytest.param(suite, owner, leaf, nth, spoil, failing, id=f"{suite}-{path or leaf}")


def _nan_at(values, i=1):
    """A stacked result, one value per member, with member ``i`` NaN."""
    return np.where(np.arange(len(values)) == i, math.nan, values)


#: (suite, module that owns the leaf, leaf, call that turns NaN, how, check ids
#: that must then fail); each poisoned call or member is not the first one of
#: its fold.  The group suite calls its array law for g1*g2 of the
#: associativity triples first and for g*g^-1 fifth.  The partition suite
#: norms its corpus as one stack first; the besov suite calls its leaf once per
#: variant and grid, fine first, with the corpus as one stack, and the jackson
#: suite once per grid.
FAULTS = [
    _fault("partition", suites, "xp_norm", 1, _nan_at, {"AC3", "PART_reconstruction"}),
    _fault("spectral", suites.sp, "kernel_leakage", 2, lambda v: math.nan, {"SPEC_parseval"}),
    _fault("jackson", suites.pw, "jackson_check", 1, _nan_jackson, {"AC12a", "AC12c"}),
    _fault("smoothing", suites.sm, "commutation_check", 2, lambda v: math.nan, {"AC8"}),
    _fault("besov", suites.fr, "besov_norm_bands", 2, lambda v: [_nan_at(n) for n in v],
           {"AC11a", "AC11b"}),
    _fault("group", suites, "_compose", 1, _nan_member, {"AC1"}, path="multiply"),
    _fault("group", suites, "_compose", 5, _nan_member, {"AC1"}, path="inverse"),
]


@pytest.mark.parametrize("suite, owner, leaf, nth, spoil, failing", FAULTS)
def test_a_nan_from_one_member_fails_its_checks(monkeypatch, suite, owner, leaf, nth, spoil,
                                                failing):
    real = getattr(owner, leaf)
    calls = itertools.count(1)

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        return spoil(out) if next(calls) == nth else out

    monkeypatch.setattr(owner, leaf, poisoned)
    checks = {c["id"]: c for c in suites.SUITES[suite](RunConfig(grid_n=64))
              ["checks"]}
    for cid in failing:
        assert math.isnan(checks[cid]["value"]) and checks[cid]["passed"] is False, checks[cid]


def test_worst_case_propagates_nan_and_rejects_empty():
    assert suites._worst([1.0, 3.0, 2.0]) == 3.0
    assert suites._worst([1.0, 3.0, 2.0], np.min) == 1.0
    assert math.isnan(suites._worst([0.0, math.nan, 1.0]))
    with pytest.raises(ValueError):
        suites._worst([])


def test_pairwise_ratios_are_nan_both_ways(monkeypatch):
    real = suites.fr.besov_norm_bands

    def poisoned(f, op, alphas, qs, variant):
        out = real(f, op, alphas, qs, variant)
        return [_nan_at(n) for n in out] if variant == "projections" else out

    monkeypatch.setattr(suites.fr, "besov_norm_bands", poisoned)
    cfg = RunConfig(grid_n=64)
    table = suites.suite_besov(cfg)["besov_table"]
    spoiled = suites._corpus(cfg, suites._grid(cfg), only_decaying=True,
                             families=suites._ANALYTIC)[1][0].name
    assert {row["function"] for row in table} - {spoiled}
    for row in table:
        pairs = row["pairwise_ratios"]
        for other in pairs:
            both = (pairs[other]["projections"], pairs["projections"][other])
            assert all(map(math.isnan, both)) if row["function"] == spoiled else \
                not any(map(math.isnan, both))
        assert pairs["k"]["approx"] == pairs["approx"]["k"] >= 1.0


@pytest.mark.parametrize("r, s", [(1, 0.5), (2, 0.5), (2, 2.0)])
def test_hardy_oracle_with_the_held_average_has_the_recomputed_bits(f_xexp, r, s):
    # AC9a's pairs: the undilated average the smoothing suite computed first stands in for
    # the Hardy oracle's k = 1 term
    average = suites._dir2_tensor_quadrature(r, s, f_xexp)
    held = suites._hardy_dir2_tensor_quadrature(r, s, f_xexp, average)
    recomputed = np.zeros(f_xexp.grid.n, dtype=complex)
    for k in range(1, r + 1):
        recomputed += (-1) ** k * math.comb(r, k) * suites._dir2_tensor_quadrature(
            r, s, f_xexp, dilation=k).values
    assert held.values.tobytes() == recomputed.tobytes()


@pytest.mark.parametrize("seed", [5, 23])
def test_ac6_projects_the_per_draw_pairs_as_one_stack(monkeypatch, seed):
    # the draws of the loop that projected one (omega, samples) pair at a time, and then
    # AC7's first draw, which must follow them in the stream
    cfg = RunConfig(seed=seed)
    rng = np.random.default_rng(seed + 1)
    draws = [(float(rng.uniform(1.0, 8.0)), rng.standard_normal(cfg.grid_n)) for _ in range(20)]
    ac7_first = rng.standard_normal(cfg.grid_n)
    real, asked = suites.pw.pw_project, []

    def recorded(omega, f, op):
        asked.append((np.array(omega), f.values.copy()))
        return real(omega, f, op)

    monkeypatch.setattr(suites.pw, "pw_project", recorded)
    suites.suite_paleywiener(cfg)
    (bands, stack), (cutoff, raw) = asked[:2]
    assert bands.tolist() == [omega for omega, _ in draws]
    assert np.array_equal(stack, np.stack([samples for _, samples in draws]))
    assert cutoff == 2.0 and np.array_equal(raw, ac7_first)


def test_suite_paleywiener_makes_38_fewer_real_matvec_calls(monkeypatch):
    # 90 before AC6's 20 draws were projected as one stack: 20 coeffs and 20 synth
    # matrix-vector products became one matrix product each way
    real, calls = suites.sp._real_matvec, []

    def counted(M, x):
        calls.append(x.shape)
        return real(M, x)

    monkeypatch.setattr(suites.sp, "_real_matvec", counted)
    suites.suite_paleywiener(RunConfig(seed=5))
    assert len(calls) == 90 - 38 and (512, 20) in calls
