"""Each named suite runs exactly the checks that SUITE_CHECKS gives it, and
its shares of the trials run them all between them."""

import json
import pickle

import pytest

from smashmod import LOCALIZED_CHECK_IDS, SUITE_NAMES, RunConfig, run_suite
from smashmod.cli import _share_records
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


def _assert_each_text_is_held_once_per_sample(inputs_of_reports):
    first = {}  # (dim, trial) -> the first of each echoed text
    for inputs in inputs_of_reports:
        texts = first.setdefault((inputs["dim"], inputs["trial"]), {})
        for v in inputs.values():
            assert texts.setdefault(v, v) is v
    assert len(first) < len(inputs_of_reports)  # samples do hold several reports


def test_reports_of_one_sample_hold_one_copy_of_each_echoed_text():
    config = RunConfig(dims=(1, 2), trials=3, p_max=2)
    _assert_each_text_is_held_once_per_sample(
        [r.inputs for r in run_suite("identities", config)])
    # pickle keeps the sharing on its way back from a forked share
    records = pickle.loads(pickle.dumps(_share_records(["identities"], config, (1, 2))))
    _assert_each_text_is_held_once_per_sample([r["inputs"] for r in records])


@pytest.mark.parametrize("field, value", [
    ("dims", (True,)), ("dims", (1.5,)), ("dims", ("1",)), ("dims", "12"), ("dims", True),
    ("max_degree", True), ("max_degree", 2.0), ("max_degree", "4"),
    ("trials", 2.5), ("trials", True), ("trials", "3"),
    ("seed", "7"), ("seed", False), ("seed", 7.0),
    ("p_max", 2.0), ("p_max", True), ("p_max", "2"),
])
def test_run_config_refuses_a_value_that_is_not_an_integer(field, value):
    # a bool, float or str used to run (and echo as given) or fail in run_suite
    with pytest.raises(ValueError, match=f"^{field} must be a"):
        RunConfig(**{field: value})


def test_run_config_is_an_immutable_value():
    config = RunConfig(dims=[2, 1], seed=-3)
    assert config.dims == (2, 1) and config == RunConfig(dims=(2, 1), seed=-3)
    assert hash(config) == hash(RunConfig(dims=(2, 1), seed=-3))
    assert config.to_dict() == {"dims": [2, 1], "max_degree": 4, "trials": 100,
                                "seed": -3, "p_max": 4}
    with pytest.raises(AttributeError):
        config.seed = 7
