"""Command-line contract: exit codes, determinism, report structure."""

import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import smashmod
import smashmod.cli as cli
import smashmod.suites as suites
from smashmod import (
    IDENTITY_IDS,
    AVModule,
    ModuleSchemaError,
    Poly,
    differential_forms,
    exterior_power,
    module_to_dict,
    zoo,
)
from smashmod.cli import build_parser, load_module_spec, main, save_module_spec
from smashmod.poly import DegreeOverflow, PolyParseError
from smashmod.suites import RunConfig, iter_identity_samples


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


# -- verify ---------------------------------------------------------------------------

def test_verify_lemma3_spec_invocation(tmp_path):
    code, data = run_json(tmp_path, [
        "verify", "--suite", "lemma3", "--dims", "1,2", "--degree", "3",
        "--trials", "8", "--seed", "7"])
    assert code == 0
    assert data["exit_status"] == 0
    assert data["summary"] == {"total": 16, "passed": 16, "failed": 0}
    assert data["config"]["seed"] == 7
    assert all(r["identity"] == "lemma3-commutator" for r in data["results"])


def test_verify_all_smoke_runs_every_identity_once(tmp_path):
    code, data = run_json(tmp_path, ["verify", "--suite", "all", "--trials", "1",
                                     "--dims", "1"])
    assert code == 0
    seen = {r["identity"] for r in data["results"]}
    assert set(IDENTITY_IDS) <= seen
    assert "omega-coherence" in seen
    assert {"localized-welldefined", "localized-bracket"} <= seen


def test_verify_reports_are_byte_identical(tmp_path):
    args = ["verify", "--suite", "lemma4,omega-coherence", "--dims", "1,2",
            "--trials", "5", "--seed", "123"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_negative_control_exits_one(tmp_path):
    code, data = run_json(tmp_path, ["verify", "--suite", "negative-control"])
    assert code == 1
    assert data["exit_status"] == 1
    assert data["summary"]["failed"] == 1
    (record,) = data["results"]
    assert record["witness"]["difference"]


def test_verify_unknown_suite_exits_two(capsys):
    assert main(["verify", "--suite", "lemma17"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_repeated_suite_exits_two(capsys):
    # a repeated suite reran its checks and counted them twice in the summary
    assert main(["verify", "--suite", "lemma3,lemma2,lemma3", "--dims", "1",
                 "--trials", "1"]) == 2
    assert "error: suite 'lemma3' given twice" in capsys.readouterr().err


@pytest.mark.parametrize("suites, later, earlier", [
    ("identities,lemma3", "lemma3", "identities"),  # reported 10 checks for 9
    ("all,localized", "localized", "all"),  # 23 for 17
    ("localized,welldefined", "welldefined", "localized"),  # 7 for 6
])
def test_verify_overlapping_suites_exit_two(capsys, suites, later, earlier):
    # a suite inside an earlier one reran its checks and counted them twice
    assert main(["verify", "--suite", suites, "--dims", "1", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert f"suite {later!r}" in err and f"suite {earlier!r}" in err


def test_verify_repeated_dimension_exits_two(capsys):
    assert main(["verify", "--suite", "lemma3", "--dims", "1,2,1", "--trials", "1"]) == 2
    assert "error: dimension 1 given twice" in capsys.readouterr().err


def test_verify_suite_that_runs_no_check_exits_two(tmp_path, capsys):
    # the localized checks skip every dimension above 2: this passed with 0/0
    assert main(["verify", "--suite", "welldefined", "--dims", "3", "--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert "suite 'welldefined' runs no check at dims 3" in err
    assert "the localized checks run at dims 1 and 2 only" in err
    code, data = run_json(tmp_path, ["verify", "--suite", "all", "--dims", "3", "--trials", "1"])
    assert code == 0 and data["summary"]["total"] == len(IDENTITY_IDS) + 2


def test_verify_defaults_are_the_run_config_defaults(tmp_path):
    # the parser holds no default of its own: an option left out is RunConfig's
    args = build_parser().parse_args(["verify"])
    assert [args.dims, args.degree, args.trials, args.seed, args.pmax] == [None] * 5
    code, data = run_json(tmp_path, ["verify", "--suite", "negative-control"])
    assert code == 1
    config = {k: v for k, v in data["config"].items() if k not in ("command", "suites")}
    assert config == RunConfig().to_dict()


def test_verify_invalid_config_exits_two(capsys):
    assert main(["verify", "--suite", "lemma3", "--trials", "0"]) == 2
    assert main(["verify", "--suite", "lemma3", "--dims", "0"]) == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "lemma2", "--pmax", "0"]) == 2
    assert capsys.readouterr().err == "error: p_max must be >= 1\n"
    assert main(["verify", "--suite", ","]) == 2
    assert capsys.readouterr().err == "error: no suite selected\n"


@pytest.mark.parametrize("dims, item", [("1,a", "a"), ("1.5", "1.5")])
def test_verify_bad_dims_item_names_the_option_and_the_item(capsys, dims, item):
    # the message was int()'s "invalid literal for int() with base 10"
    assert main(["verify", "--suite", "lemma3", "--dims", dims]) == 2
    assert capsys.readouterr().err == f"error: --dims item {item!r} is not an integer\n"


def test_verify_product_past_the_exponent_limit_names_the_options(capsys):
    # --degree 40000 is inside the limit, but the suites' products are not
    assert main(["verify", "--suite", "all", "--dims", "1", "--trials", "1",
                 "--degree", "40000"]) == 2
    err = capsys.readouterr().err
    assert "--degree" in err and "--pmax" in err and "65535" in err


@pytest.mark.parametrize("degree", ["0", "65536", "70000"])
def test_verify_degree_outside_the_exponent_limit_exits_two(capsys, degree):
    # the sampler used to fail inside Poly with "exponent out of range in (67192,)"
    assert main(["verify", "--suite", "all", "--dims", "1", "--trials", "1",
                 "--degree", degree]) == 2
    err = capsys.readouterr().err
    assert "max degree" in err and "65535" in err and degree in err


# verify runs one share of the trials per CPU of its affinity mask
needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                                reason="verify splits its trials only where it can fork")


def _cpus(monkeypatch, count):
    """Make verify see ``count`` CPUs; returns the list its forks are counted in."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@needs_fork
def test_verify_report_bytes_do_not_depend_on_the_cpu_count(monkeypatch, capsys):
    # each share sorts its own records and the shares are merged; the failing
    # selection merges a record with a witness, from the share with trial 0
    for suite, code in (("all", 0), ("lemma3,negative-control", 1)):
        outs = []
        for cpus in (1, 2, 3):
            forks = _cpus(monkeypatch, cpus)
            assert main(["verify", "--suite", suite, "--dims", "1,2", "--trials", "6",
                         "--pmax", "2", "--seed", "7"]) == code
            assert len(forks) == cpus - 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert ('"witness"' in outs[0]) == bool(code)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("level", [(2, 1), (1, 1)], ids=["in-a-child", "in-this-process"])
def test_verify_error_in_a_share_is_the_serial_error(monkeypatch, capsys, level):
    # with 6 trials in 3 shares, level (2, 1) is hit in share 1 only, level
    # (1, 1) in shares 0 and 2: this process raises, and kills its children
    real = suites.verify_identity

    def verify_identity(name, bound):
        if (bound["p"], bound["q"]) == level:
            raise DegreeOverflow(f"planted at level {level}")
        return real(name, bound)

    monkeypatch.setattr(suites, "verify_identity", verify_identity)
    args = ["verify", "--suite", "lemma2", "--dims", "1,2", "--trials", "6", "--pmax", "2"]
    errs = []
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        assert main(args) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert f"planted at level {level}" in errs[0] and "--pmax" in errs[0]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_verify_errors_in_two_shares_give_the_serial_first_error(monkeypatch, capsys):
    # with 6 trials in 3 shares, dim 1 trial 2 (level (2, 1)) is in share 1 and
    # dim 2 trial 0 (level (1, 1)) in share 0; a serial run meets dim 1 first
    real = suites.verify_identity

    def verify_identity(name, bound):
        dim, level = bound["f"].dim, (bound["p"], bound["q"])
        if (dim, level) in ((1, (2, 1)), (2, (1, 1))):
            raise DegreeOverflow(f"planted in dim {dim}")
        return real(name, bound)

    monkeypatch.setattr(suites, "verify_identity", verify_identity)
    args = ["verify", "--suite", "lemma2", "--dims", "1,2", "--trials", "6", "--pmax", "2"]
    errs = []
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        assert main(args) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert "planted in dim 1" in errs[0]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_verify_error_that_cannot_be_pickled_exits_two(monkeypatch, capsys):
    # PolyParseError needs its position to be built again, so it cannot travel
    # back from the child whose share (level (2, 1), share 1 of 3) raises it
    real = suites.verify_identity

    def verify_identity(name, bound):
        if (bound["p"], bound["q"]) == (2, 1):
            raise PolyParseError("planted", 3)
        return real(name, bound)

    monkeypatch.setattr(suites, "verify_identity", verify_identity)
    _cpus(monkeypatch, 3)
    assert main(["verify", "--suite", "lemma2", "--dims", "1,2", "--trials", "6",
                 "--pmax", "2"]) == 2
    assert capsys.readouterr().err == "error: planted (at position 3)\n"
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_verify_failure_that_only_a_child_makes_is_reported_as_in_one_process(monkeypatch, capsys):
    # with 6 trials in 3 shares and pmax 3, levels (2, 2) and (2, 3) are those
    # of trials 4 and 5, the last share's: only a child makes the failures,
    # and only its header tells this process the exit status and the summary;
    # a child sends each record as one line, whatever characters its witness holds
    real, witness = suites.verify_identity, {}

    def verify_identity(name, bound):
        report = real(name, bound)
        if bound["p"] == 2 and bound["q"] >= 2:
            return report._replace(status="fail", witness=witness)
        return report

    monkeypatch.setattr(suites, "verify_identity", verify_identity)
    args = ["verify", "--suite", "lemma2", "--dims", "1,2", "--trials", "6", "--pmax", "3"]
    for difference in ("planted", 'planted \n \r \u2028 " \\'):
        witness["difference"] = difference
        for fmt in ("json", "text"):
            outs = []
            for cpus in (1, 3):
                forks = _cpus(monkeypatch, cpus)
                assert main(args + ["--format", fmt]) == 1
                assert len(forks) == cpus - 1
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]
        assert outs[0].endswith("summary: 8/12 passed, 4 failed\n")
        assert outs[0].count("witness: ") == 4
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("part, sent", [
    (lambda lines: "", 0),
    (lambda lines: "".join(lines[:2]), 2),
    (lambda lines: "".join(lines)[:-2], 3),  # the last record without its "}\n"
], ids=["after-its-header", "after-two-records", "mid-line"])
def test_verify_child_stream_that_stops_short_exits_two(monkeypatch, capsys, part, sent):
    # the children write their true headers, then only part of their lines:
    # the report must not close with a summary its records disagree with
    def send_share(suites, config, share, fh):
        texts, failed = cli._share_records(suites, config, share)
        fh.write(f"{len(texts)} {failed}\n")
        fh.write(part([text + "\n" for text in texts]))

    monkeypatch.setattr(cli, "_send_share", send_share)
    _cpus(monkeypatch, 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["verify", "--suite", "lemma2", "--dims", "1,2", "--trials", "6",
                     "--pmax", "2"]) == 2
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    out, err = capsys.readouterr()
    assert '"summary"' not in out
    assert err == f"error: share 1 of 3 sent {sent} of its 4 records; the report is cut short\n"
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("args, children", [
    (["--suite", "negative-control"], 0),  # forked 2 children that ran nothing
    (["--suite", "lemma2", "--trials", "6"], 2),
], ids=["negative-control", "lemma2"])
def test_verify_forks_only_for_shares_that_hold_checks(monkeypatch, capsys, args, children):
    outs = []
    for cpus, forks_made in ((1, 0), (3, children)):
        forks = _cpus(monkeypatch, cpus)
        main(["verify", *args])
        assert len(forks) == forks_made
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _imports_after(code: str) -> str:
    """The last line ``code`` prints, run in a fresh interpreter on this checkout."""
    parent = str(Path(smashmod.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=parent), check=True)
    return proc.stdout.splitlines()[-1]


def test_order_imports_no_process_machinery(tmp_path):
    # order and annihilator load only poly, smash, modules and cli: not verify's
    # layers, its process machinery, nor dataclasses or inspect
    path = str(tmp_path / "forms2.json")
    save_module_spec(differential_forms(2), path)
    unwanted = ["smashmod.suites", "smashmod.localize", "smashmod.sampling", "dataclasses",
                "inspect", "pickle", "signal", "multiprocessing"]
    for argv in (["order", "--module", "zoo:forms", "--dim", "1"],
                 ["order", "--module", path],
                 ["annihilator", "--module", "zoo:jets", "--dim", "1", "--n", "2",
                  "--f", "x1^2", "--eta", "x1*d1"],
                 ["annihilator", "--module", path, "--f", "x1^2 - x2", "--eta", "x1*d2"]):
        argv += ["--out", str(tmp_path / "report.json")]
        # a module the interpreter loaded at start-up (say, for a .pth file) is not the command's
        assert _imports_after(f"started = set(sys.modules)\n"
                              f"import smashmod.cli as cli\n"
                              f"assert cli.main({argv!r}) == 0\n"
                              f"print(sorted(set({unwanted!r}) & set(sys.modules) - started))"
                              ) == "[]", argv


def test_verify_imports_neither_dataclasses_inspect_nor_pickle(tmp_path):
    # its children send their records as lines of JSON text, not pickles
    argv = ["verify", "--suite", "lemma2,omega-coherence,bracket", "--dims", "1",
            "--trials", "2", "--out", str(tmp_path / "report.json")]
    unwanted = {"dataclasses", "inspect", "pickle"}
    assert _imports_after(f"started = set(sys.modules)\n"
                          f"import smashmod.cli as cli\n"
                          f"assert cli.main({argv!r}) == 0\n"
                          f"print(sorted({unwanted!r} & set(sys.modules) - started))"
                          ) == "[]"


def test_import_smashmod_loads_no_layer():
    assert _imports_after("import smashmod\n"
                          "print(sorted(m for m in sys.modules if m.startswith('smashmod.')))"
                          ) == "[]"


def test_dir_lists_every_public_name():
    from test_api import PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(smashmod))


def test_cli_reads_verify_names_from_suites():
    assert cli.run_suite is suites.run_suite
    assert cli.plan_suites is suites.plan_suites
    assert cli.RunConfig is suites.RunConfig
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_level_grid_is_computed_per_trial():
    # the (p, q) levels follow the row-major grid 1..p_max x 1..p_max,
    # cycled, without building the p_max^2 pairs up front
    config = RunConfig(dims=(1,), max_degree=1, trials=11, seed=3, p_max=3)
    levels = [(b["p"], b["q"]) for _, _, b in iter_identity_samples(config)]
    grid = [(p, q) for p in range(1, 4) for q in range(1, 4)]
    assert levels == grid + grid[:2]
    big = RunConfig(dims=(1,), max_degree=1, trials=1, seed=3, p_max=1000)
    tracemalloc.start()
    try:
        next(iter_identity_samples(big))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"first sample peaked at {peak} bytes"


def test_verify_text_format(capsys):
    code = main(["verify", "--suite", "lemma2", "--dims", "1", "--trials", "2",
                 "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("smashmod ")
    assert "[PASS]" in out and "summary:" in out
    # a failure prints its witness on the line below it
    assert main(["verify", "--suite", "negative-control", "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] negative-control-lemma3 " in out
    assert '\n        witness: {"difference": ' in out
    assert out.endswith("summary: 0/1 passed, 1 failed\n")


# -- report output ----------------------------------------------------------------------

REPORT_COMMANDS = [
    ["verify", "--suite", "negative-control"],  # fails, so the report holds a witness
    ["order", "--module", "zoo:jets", "--dim", "1", "--n", "2"],
    ["annihilator", "--module", "zoo:forms", "--dim", "1", "--f", "x1", "--eta", "d1"],
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("args", REPORT_COMMANDS, ids=lambda args: args[0])
def test_stdout_and_out_file_get_the_same_report_bytes(tmp_path, capsysbinary, args, fmt):
    path = tmp_path / "report"
    code = main(args + ["--format", fmt, "--out", str(path)])
    assert main(args + ["--format", fmt]) == code == (1 if args[0] == "verify" else 0)
    out = capsysbinary.readouterr().out
    assert out == path.read_bytes()
    assert (b"witness" in out) == (args[0] == "verify")
    if fmt == "json":
        text = out.decode("utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class _CountingSink:
    """A text stream that keeps only how many writes and characters it got."""

    def __init__(self):
        self.writes = self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)


def test_a_report_envelope_is_built_once_and_its_fields_cannot_be_set():
    envelope = cli.ReportEnvelope({"command": "order"}, [{"status": "fail"}])
    for field in ("config", "results", "failed"):
        with pytest.raises(AttributeError):
            setattr(envelope, field, [])
    assert envelope.to_dict()["summary"] == {"total": 1, "passed": 0, "failed": 1}
    # the benchmark's tracer wraps the method it finds in the class body
    assert "to_dict" in vars(cli.ReportEnvelope)


@pytest.mark.parametrize("render", [cli.render_json, cli.render_text],
                         ids=lambda render: render.__name__)
def test_report_is_written_in_bounded_batches(render):
    # records shaped like verify's, 0.5-0.9 MB of report; json.dumps with
    # indent builds a list of every token first, 7.5 times the text's size
    envelope = cli.ReportEnvelope({"command": "verify", "seed": 7}, [
        {"identity": "lemma4-2", "status": "pass", "suite": "identities",
         "inputs": {"dim": "2", "eta": f"x1^{k % 5}*d1 - {k}/7*x2*d2",
                    "f": f"{k}*x1^3 - 2*x1*x2", "p": str(k % 4 + 1), "trial": str(k)}}
        for k in range(3500)])
    data = envelope.to_dict()
    whole = io.StringIO()
    render(data, whole)
    length = len(whole.getvalue())
    assert length > 300_000
    sink = _CountingSink()
    tracemalloc.start()
    try:
        render(data, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == length
    assert peak < length / 2, f"rendering {length} characters peaked at {peak} bytes"
    # one write per token would make an unbuffered stdout one system call each
    assert sink.writes <= length // 4096 + 3


@pytest.mark.parametrize("target", ["missing directory", "/dev/full"])
def test_failed_report_write_exits_two_with_a_message(tmp_path, capsys, target):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full on this platform")
    path = tmp_path / "missing" / "report.json" if target == "missing directory" else target
    # over one 8 KiB buffer of report, so /dev/full fails inside the stream
    args = ["verify", "--suite", "lemma2", "--dims", "1", "--trials", "40", "--out", str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if target == "missing directory":
        assert not path.exists()


# -- order ----------------------------------------------------------------------------

def test_order_jets_spec_example(tmp_path):
    code, data = run_json(tmp_path, ["order", "--module", "zoo:jets",
                                     "--dim", "1", "--n", "2"])
    assert code == 0
    (r,) = data["results"]
    assert r["rank"] == 3
    assert r["lie_map_order"] == 2
    assert r["oracle_order"] == 2
    assert r["rank_squared_bound"] == 9
    assert r["status"] == "pass"


def test_order_dmodule(tmp_path):
    code, data = run_json(tmp_path, ["order", "--module", "zoo:dmodule"])
    assert code == 0
    (r,) = data["results"]
    assert r["lie_map_order"] == 0 and r["oracle_order"] == 0


def test_order_twist_rational_weight(tmp_path):
    code, data = run_json(tmp_path, ["order", "--module", "zoo:twist", "--lam", "1/2"])
    assert code == 0
    (r,) = data["results"]
    assert r["lie_map_order"] == 1 and r["rank"] == 1


@pytest.mark.parametrize("lam", ["1/0", "abc"])
def test_order_bad_twist_weight_exits_two_with_a_message(capsys, lam):
    assert main(["order", "--module", "zoo:twist", "--lam", lam]) == 2
    assert capsys.readouterr().err == f"error: twist weight {lam!r} is not a rational number\n"


def test_order_reports_a_rank_squared_breach_as_a_failed_check(tmp_path, monkeypatch):
    # a rank-1 module of order 2 breaks the paper's bound N <= rank^2, so
    # validate() refuses it; marked valid by hand, it must fail the report,
    # not stop the command with a usage error
    breach = AVModule(1, 1, {(1, (2,)): ((Poly.constant(1, 1),),)}, name="breach")
    assert not breach.validate().passed
    breach._validated = True
    monkeypatch.setattr(cli, "_resolve_module", lambda args: breach)
    code, data = run_json(tmp_path, ["order", "--module", "zoo:dmodule"])
    assert code == 1
    (r,) = data["results"]
    assert (r["lie_map_order"], r["rank_squared_bound"], r["status"]) == (2, 1, "fail")
    assert data["summary"] == {"total": 1, "passed": 0, "failed": 1}


def test_order_bad_module_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = module_to_dict(differential_forms(1))
    data["rank"] = 2  # matrices no longer match
    bad.write_text(json.dumps(data))
    assert main(["order", "--module", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_order_module_file_that_is_not_a_mapping_exits_two(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([module_to_dict(differential_forms(1))]))
    assert main(["order", "--module", str(bad)]) == 2
    assert capsys.readouterr().err == "error: module definition must be a mapping\n"


def test_order_invalid_module_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "incompatible.json"
    bad.write_text(json.dumps({
        "name": "broken", "dim": 2, "rank": 2, "order": 1,
        "terms": [{"i": 1, "alpha": [1, 0],
                   "matrix": [["x1", "0"], ["0", "0"]]}]}))
    assert main(["order", "--module", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "validation" in err


def test_order_missing_file_exits_two(capsys):
    assert main(["order", "--module", "no-such-file.json"]) == 2


def test_order_unparsable_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "notjson.json"
    bad.write_text("{")
    assert main(["order", "--module", str(bad)]) == 2
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--dim", "3"), ("--rank", "2"), ("--n", "7"),
                                         ("--lam", "5")])
def test_order_zoo_flag_on_a_module_file_exits_two(tmp_path, capsys, flag, value):
    # the flags were ignored, and the report echoed the file's module
    path = tmp_path / "forms.json"
    save_module_spec(differential_forms(1), str(path))
    assert main(["order", "--module", str(path), flag, value]) == 2
    assert flag in capsys.readouterr().err


# -- annihilator ------------------------------------------------------------------------

def test_annihilator_forms_spec_example(tmp_path):
    code, data = run_json(tmp_path, ["annihilator", "--module", "zoo:forms",
                                     "--dim", "1", "--f", "x1", "--eta", "d1"])
    assert code == 0
    (r,) = data["results"]
    assert r["min_annihilating_order"] == 2


def test_annihilator_constant_f(tmp_path):
    code, data = run_json(tmp_path, ["annihilator", "--module", "zoo:forms",
                                     "--dim", "1", "--f", "7", "--eta", "d1"])
    assert code == 0
    (r,) = data["results"]
    assert r["min_annihilating_order"] == 1
    assert "constant" in r["note"]


def test_annihilator_jets_three(tmp_path):
    code, data = run_json(tmp_path, ["annihilator", "--module", "zoo:jets",
                                     "--dim", "1", "--n", "3",
                                     "--f", "x1", "--eta", "d1"])
    assert code == 0
    (r,) = data["results"]
    assert r["min_annihilating_order"] == 4


def test_annihilator_bad_poly_exits_two(capsys):
    assert main(["annihilator", "--module", "zoo:forms", "--dim", "1",
                 "--f", "(x1)", "--eta", "d1"]) == 2
    assert main(["annihilator", "--module", "zoo:forms", "--dim", "2",
                 "--f", "x1", "--eta", "d3"]) == 2


def test_annihilator_past_the_exponent_limit_exits_two(capsys):
    # omega(4, f, eta) has degree 5 * 16383 > 0xFFFF; a carry between the
    # exponent fields would print x1*y1^16379 where y1^81915 belongs
    assert main(["annihilator", "--module", "zoo:jets", "--dim", "1", "--n", "4",
                 "--f", "x1^16383", "--eta", "x1^16383*d1"]) == 2
    assert "exponent limit" in capsys.readouterr().err


def test_annihilator_term_past_the_degree_limit_exits_two(capsys):
    # one term of degree 5 * 16383 > 0xFFFF; it used to parse as x1*x2^16379
    f = "*".join(["x2^16383"] * 5)
    assert main(["annihilator", "--module", "zoo:dmodule", "--dim", "2",
                 "--f", f, "--eta", "d1"]) == 2
    assert "exponent limit" in capsys.readouterr().err


LONG = "9" * 5000  # past the 4300 digits int() converts by default


@pytest.mark.parametrize("f, eta", [
    (LONG + "*x1", "d1"),     # coefficient
    ("x1^" + LONG, "d1"),     # exponent
    ("x" + LONG, "d1"),       # variable index
    ("x1", "x1^" + LONG + "*d1"),
    ("x1", "d" + LONG),       # direction index
], ids=["coefficient", "exponent", "variable-index", "field-exponent", "direction-index"])
def test_annihilator_over_long_number_exits_two(capsys, f, eta):
    assert main(["annihilator", "--module", "zoo:forms", "--dim", "1",
                 "--f", f, "--eta", eta]) == 2
    err = capsys.readouterr().err
    assert "too many digits" in err and "at position" in err


# -- module files -----------------------------------------------------------------------

def test_zoo_export_import_round_trip(tmp_path):
    mods = [zoo("dmodule", dim=1, rank=2), zoo("forms", dim=2), zoo("adjoint", dim=1),
            zoo("jets", dim=1, n=2), zoo("jets", dim=2, n=1), zoo("twist", lam="2")]
    for k, mod in enumerate(mods):
        path = tmp_path / f"mod{k}.json"
        save_module_spec(mod, str(path))
        again = load_module_spec(str(path))
        assert again == mod
        assert main(["order", "--module", str(path),
                     "--out", str(tmp_path / f"rep{k}.json")]) == 0


def test_save_refuses_the_rank_zero_module(tmp_path):
    # a module file needs rank >= 1, so the loader could not read it back
    path = tmp_path / "zero.json"
    zero = exterior_power(differential_forms(1), 2)
    with pytest.raises(ModuleSchemaError, match="rank 0"):
        save_module_spec(zero, str(path))
    assert not path.exists()


def test_console_script_entry():
    # the installed entry point wires up argparse's usage exit code; the child
    # imports the package these tests import, from a checkout or an install
    parent = str(Path(smashmod.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (parent, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "smashmod.cli", "order"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2  # --module is required


def test_console_entry_exits_with_the_code_of_main(monkeypatch, tmp_path):
    out = tmp_path / "order.json"
    monkeypatch.setattr(sys, "argv", ["smashmod", "order", "--module", "zoo:jets",
                                      "--dim", "1", "--n", "2", "--out", str(out)])
    with pytest.raises(SystemExit) as exited:
        cli.console_entry()
    assert exited.value.code == 0 and json.loads(out.read_text())["results"][0]["status"] == "pass"


def test_annihilator_zoo_flag_on_a_module_file_exits_two(tmp_path, capsys):
    path = tmp_path / "jets.json"
    save_module_spec(zoo("jets", dim=1, n=2), str(path))
    assert main(["annihilator", "--module", str(path), "--n", "3",
                 "--f", "x1", "--eta", "d1"]) == 2
    assert "--n" in capsys.readouterr().err
