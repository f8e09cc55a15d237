"""Each named suite runs exactly the checks that SUITE_CHECKS gives it."""

import pytest

from smashmod import LOCALIZED_CHECK_IDS, SUITE_NAMES, RunConfig, run_suite
from smashmod.suites import SUITE_CHECKS


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
