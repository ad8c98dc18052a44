"""The benchmark's output checks pass on right outputs and fail on wrong ones.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import math

import numpy as np
import pytest

import checks
import workloads


def tsirelson_table(v=1.0):
    """P(ab|xy) = (1 + (-1)^(a+b) E_xy)/4 with the CHSH correlators v/sqrt2."""
    table = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            e = (-1 if (x, y) == (1, 1) else 1) * v / math.sqrt(2)
            for a in range(2):
                for b in range(2):
                    table[x, y, a, b] = (1 + (-1) ** (a + b) * e) / 4
    return table


def test_reference_lps_on_tsirelson_behaviour():
    assert checks.lp_nlr_mar(tsirelson_table()) == pytest.approx(math.sqrt(2) - 1, abs=1e-9)
    assert checks.lp_nlr_lhv(tsirelson_table()) == pytest.approx((math.sqrt(2) - 1) / 2,
                                                                abs=1e-9)
    assert checks.lp_nlr_lhv(tsirelson_table(0.7)) == pytest.approx(0.0, abs=1e-9)


def sweep_rows():
    rows = []
    for kind, (_, form) in checks.SWEEP_CLOSED_FORMS.items():
        for v in (0.5, 0.75, 0.8, 0.9, 1.0):
            threshold = checks.SWEEP_CLOSED_FORMS[kind][0]
            rows.append(("", v, kind, form(v) if v > threshold else 0.0))
    return rows


def test_sweep_check_passes_on_closed_forms():
    assert checks.check_sweep(sweep_rows()) == []


@pytest.mark.parametrize("kind", sorted(checks.SWEEP_CLOSED_FORMS))
def test_sweep_check_fails_on_shifted_closed_form(kind):
    shifted = dict(checks.SWEEP_CLOSED_FORMS)
    threshold, form = shifted[kind]
    shifted[kind] = (threshold, lambda v: form(v) + 1e-5)
    errors = checks.check_sweep(sweep_rows(), closed_forms=shifted)
    assert errors and all(e.startswith("sweep.closed_form") and kind in e for e in errors)


def test_sweep_check_fails_on_value_below_threshold():
    rows = sweep_rows() + [("", 0.5, "SR_c", 1e-5)]
    assert checks.check_sweep(rows)[0].startswith("sweep.closed_form")


def ladder_values(eta=0.4):
    values = {}
    for m in (5, 6):
        iw = (eta - 1 / m) / (1 - 1 / m)
        values.update({(m, "IR"): 0.03, (m, "SR_c"): 0.03, (m, "IW"): iw,
                       (m, "SW_c"): iw})
    return values


def test_ladder_check():
    known = {(7, "SW_c")}
    assert checks.check_ladder([ladder_values()], [(7, "SW_c")], 0.4, known) == []
    wrong = ladder_values()
    wrong[(6, "IW")] += 1e-5
    errors = checks.check_ladder([ladder_values(), wrong], [], 0.4, known)
    assert {e.split(":")[0] for e in errors} == {"ladder.iw_closed_form", "ladder.equality"}
    errors = checks.check_ladder([ladder_values()], [(6, "IR")], 0.4, known)
    assert errors[0].startswith("ladder.failure")


@pytest.fixture(scope="module")
def chain_record():
    chain = workloads.Chain(seed=7)
    chain.triples = chain.triples[:1]
    records, failed = chain.round()
    assert failed == []
    return records[0]


def test_chain_check_passes(chain_record):
    assert checks.check_chain([chain_record]) == []


@pytest.mark.parametrize("group, kind, name", [
    ("nonlocality", "NLR_mar", "chain.lp"),
    ("nonlocality", "NLR_lhv", "chain.lp"),
    ("incompat", "weight", "chain.witness"),
    ("steering", "SR_red", "chain.inequality_cert"),
])
def test_chain_check_fails_on_wrong_value(chain_record, group, kind, name):
    values = getattr(chain_record, group)
    saved = values[kind]
    values[kind] = saved + 1e-5
    try:
        errors = checks.check_chain([chain_record])
    finally:
        values[kind] = saved
    assert any(e.startswith(name) and kind in e for e in errors)


def test_chain_check_fails_on_broken_inequality(chain_record):
    saved = chain_record.steering["SR"]
    chain_record.steering["SR"] = chain_record.nonlocality["NLR"] - 1e-5
    try:
        errors = checks.check_chain([chain_record])
    finally:
        chain_record.steering["SR"] = saved
    assert any(e.startswith("chain.inequality:") for e in errors)


def test_chain_check_fails_on_wrong_witness_bound(chain_record):
    y, bound = chain_record.witnesses["robustness"]
    chain_record.witnesses["robustness"] = (y + 1e-5 * np.eye(2), bound)
    try:
        errors = checks.check_chain([chain_record])
    finally:
        chain_record.witnesses["robustness"] = (y, bound)
    assert any(e.startswith("chain.witness") for e in errors)
