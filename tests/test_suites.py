"""Each named suite runs exactly the checks that SUITE_CHECKS gives it, and
its shares of the trials run them all between them."""

import json

import pytest

from smashmod import LOCALIZED_CHECK_IDS, SUITE_NAMES, RunConfig, run_suite
from smashmod.suites import SUITE_CHECKS, _localized_samples


def _identities(check: str) -> set[str]:
    """The report identities a check id yields."""
    if check == "omega-coherence":
        return {"omega-coherence", "omega-multi-coherence"}
    if check in LOCALIZED_CHECK_IDS:
        return {f"localized-{check}"}
    if check == "negative-control":
        return {"negative-control-lemma3"}
    return {check}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_runs_exactly_its_own_checks(name):
    reports = run_suite(name, RunConfig(dims=(1,), trials=1, p_max=1))
    assert {r.identity for r in reports} == set().union(*map(_identities, SUITE_CHECKS[name]))
    # every report names its dimension, and every one but the fixed negative
    # control its trial
    assert all("dim" in r.inputs for r in reports)
    assert all("trial" in r.inputs for r in reports if r.identity != "negative-control-lemma3")


def _multiset(reports) -> list[str]:
    return sorted(json.dumps(r.to_dict(), sort_keys=True) for r in reports)


@pytest.mark.parametrize("trials", [5, 1])
def test_shares_make_exactly_the_reports_of_the_serial_run(trials):
    # every family, the negative control too; with one trial, n > trials
    # leaves some shares empty
    config = RunConfig(dims=(1, 2), trials=trials, p_max=2)
    for name in ("all", "negative-control"):
        serial = _multiset(run_suite(name, config))
        for n in (1, 2, 3):
            shares = [r for k in range(n) for r in run_suite(name, config, (k, n))]
            assert _multiset(shares) == serial, (name, n)


@pytest.mark.parametrize("max_degree", [1, 2])
def test_localized_samples_draw_f_of_degree_one_below_max_degree_three(max_degree):
    # f has degree at most max_degree - 1, and at least 1, since it is nonconstant
    config = RunConfig(dims=(1, 2), max_degree=max_degree, trials=20)
    fs = [f for _, _, (_, _, f, *_) in _localized_samples(config)]
    assert len(fs) == 40 and all(f.total_degree() == 1 for f in fs)


def test_a_share_is_a_contiguous_block_of_trials():
    config = RunConfig(dims=(1, 2), trials=5, p_max=2)
    trials = {(r.inputs["dim"], r.inputs["trial"]) for r in run_suite("lemma2", config, (1, 3))}
    assert trials == {(d, t) for d in ("1", "2") for t in ("1", "2")}
    with pytest.raises(ValueError, match="no share 3 of 3"):
        run_suite("lemma2", config, (3, 3))
