"""Time-to-verdict benchmark of the smashmod CLI.

Each workload is a list of ``smashmod`` CLI commands (see workloads.py),
run at both golden verifier seeds, one fresh interpreter per command.  Every
report is checked against the golden sha256 recorded for its (workload,
seed, command) in golden.json, so a faster but different answer counts as a
failure.  See README.md in this directory for the metrics.

    python3 perfbench/run.py --workload identities --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all                     # every workload, both seeds
    python3 perfbench/run.py --all --verifier-seed 7   # every workload, one seed
    python3 perfbench/run.py --record                  # rewrite golden.json

With ``--workload`` the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--seed`` orders the passes and the commands inside them; the verifier
seeds are always the golden ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
from workloads import GOLDEN_SEEDS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "verdict_s": "s",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "share",
    "report_match": "share",
}
# failed_share and report_match read 0 and 1 on a correct program; a
# --workload run carries them as its result's failed count and correct flag.
WORKLOAD_RUN_METRICS = ("verdict_s", "checks_per_s", "setup_s", "peak_rss_mb")

IDENTITY_IDS = (
    "lemma2-commute-A", "lemma3-commutator", "lemma4-1", "lemma4-2", "lemma4-3",
    "lemma4-4", "lemma4-5", "lemma5-deriv-bracket", "lemma4.1-recurrence",
)
LOCALIZED_CHECK_IDS = (
    "welldefined", "leibniz", "bracket", "inverse-square", "inverse-cube", "restriction",
)
# span name -> the span statistics reported for it
LAYER_SPANS = {
    "poly.mul": ("calls", "self_s"),
    "poly.pow": ("calls", "s"),
    "poly.partial_derivative": ("calls", "s"),
    "poly.exact_divide": ("calls", "s"),
    "smash.smash_bracket": ("calls", "s", "self_s"),
    "smash.omega": ("calls", "s"),
    "smash.omega_multi": ("calls", "s"),
    **{f"smash.verify_identity.{i}": ("s",) for i in IDENTITY_IDS},
    "modules.validate": ("calls", "s", "self_s"),
    "modules.act_smash": ("calls", "s"),
    "modules.annihilates": ("calls", "s"),
    "modules.oracle_order": ("s",),
    "modules.min_annihilating_order": ("s",),
    "localize.act": ("calls", "s", "self_s"),
    "localize.reduce": ("calls", "s"),
    **{f"localize.verify_localized.{i}": ("s",) for i in LOCALIZED_CHECK_IDS},
    "suites.run_suite": ("self_s",),
    "cli.load_module_spec": ("s",),
    "cli.report": ("s",),
}
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
# metrics derived from the tracer's counters -> unit
LAYER_COUNTERS = {
    "poly.mul.term_pairs": "count",
    "poly.mul.rational_share": "share",
    "poly.mul.peak_degree": "degree",
    "poly.pow.out_terms": "count",
    "poly.exact_divide.hit_ratio": "share",
    "modules.validate.pairs": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span, stats in LAYER_SPANS.items():
        for stat in stats:
            units[f"{span}.{stat}"] = STAT_UNITS[stat]
    units.update(LAYER_COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------------

def spawn(jobs: list[dict], work: Path) -> dict:
    """Run jobs ({"argv", "cwd", "stderr"}) in sequence through spawn.py.

    Returns spawn.py's result: the wall time of the whole list and, per
    job, its wall time, exit code and peak RSS."""
    work.mkdir(parents=True, exist_ok=True)
    jobs_file, results_file = work / "jobs.json", work / "results.json"
    jobs_file.write_text(json.dumps(jobs), encoding="utf-8")
    results_file.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(HERE / "spawn.py"), str(jobs_file), str(results_file)],
                   env=env, check=True)
    return json.loads(results_file.read_text(encoding="utf-8"))


def setup(workload: str, work: Path, small: bool, repeats: int) -> tuple[list[dict], list[float]]:
    """Run the set-up step ``repeats`` times, each in a fresh interpreter."""
    argv = [sys.executable, str(HERE / "workloads.py"), workload, str(work)]
    if small:
        argv.append("--small")
    job = {"argv": argv, "cwd": str(ROOT), "stderr": str(work / "setup.log")}
    done = spawn([job] * repeats, work)
    if any(j["code"] != 0 for j in done["jobs"]):
        raise RuntimeError(f"set-up of {workload} failed; see {work / 'setup.log'}")
    commands = json.loads((work / "commands.json").read_text(encoding="utf-8"))
    return commands, [j["wall"] for j in done["jobs"]]


def run_pass(commands: list[dict], work: Path, reports: Path, traced: bool) -> dict:
    """Run commands in order, one interpreter each; time the whole pass.

    Commands run in their ``cwd`` under ``work`` and write their reports to
    ``reports``.  Returns the pass wall time, the peak child RSS and one
    record per command (exit code, report path, span summary path)."""
    reports.mkdir(parents=True, exist_ok=True)
    jobs, records = [], []
    for k, cmd in enumerate(commands):
        out = reports / f"{k:03d}.json"
        spans = reports / f"{k:03d}.spans.json"
        for stale in (out, spans):
            stale.unlink(missing_ok=True)
        cli = [*cmd["argv"], "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *cli]
        else:
            argv = [sys.executable, "-m", "smashmod.cli", *cli]
        jobs.append({"argv": argv, "cwd": str(work / cmd["cwd"]),
                     "stderr": str(reports / f"{k:03d}.stderr")})
        records.append({"cmd": cmd, "out": out, "spans": spans})
    done = spawn(jobs, reports)
    for rec, job in zip(records, done["jobs"]):
        rec["code"] = job["code"]
    return {"wall": done["wall"], "peak_kib": max(j["maxrss_kib"] for j in done["jobs"]),
            "records": records}


# ---------------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------------

def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def check_pass(workload: str, result: dict, golden: dict | None) -> dict:
    """Checks attempted and failed, and report hashes matched, for one pass.

    A failed check, a non-zero exit and a report whose sha256 differs from
    the golden one each count as one failed operation.  With ``golden``
    None the hashes are only collected (recording)."""
    checks = failed = matched = 0
    hashes = {}
    for rec in result["records"]:
        cmd = rec["cmd"]
        try:
            data = rec["out"].read_bytes()
            summary = json.loads(data)["summary"]
        except (OSError, ValueError, KeyError):
            checks += 1
            failed += 1
            continue
        digest = hashlib.sha256(data).hexdigest()
        hashes[cmd["label"]] = digest
        checks += summary["total"]
        failed += summary["failed"] + (rec["code"] != 0)
        if golden is not None:
            want = golden.get(workload, {}).get(str(cmd["seed"]), {}).get(cmd["label"])
            if digest == want:
                matched += 1
            else:
                failed += 1
    return {"checks": checks, "failed": failed, "matched": matched,
            "reports": len(result["records"]), "hashes": hashes}


# ---------------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------------

def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    """Sum the tracer summaries of several commands into per-layer metrics."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for path in span_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        for name, stats in data["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for stat, value in stats.items():
                acc[stat] += value
        for name, value in data["counters"].items():
            if name.endswith("peak_degree"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    metrics = {}
    for span, stats in LAYER_SPANS.items():
        for stat in stats:
            metrics[f"{span}.{stat}"] = spans.get(span, {}).get(stat, 0)
    mul_calls = spans.get("poly.mul", {}).get("calls", 0)
    divides = spans.get("poly.exact_divide", {}).get("calls", 0)
    metrics["poly.mul.term_pairs"] = counters.get("poly.mul.term_pairs", 0)
    metrics["poly.mul.rational_share"] = (
        counters.get("poly.mul.rational_calls", 0) / mul_calls if mul_calls else 0.0)
    metrics["poly.mul.peak_degree"] = counters.get("poly.mul.peak_degree", 0)
    metrics["poly.pow.out_terms"] = counters.get("poly.pow.out_terms", 0)
    metrics["poly.exact_divide.hit_ratio"] = (
        counters.get("poly.exact_divide.hits", 0) / divides if divides else 0.0)
    metrics["modules.validate.pairs"] = counters.get("modules.validate.pairs", 0)
    return metrics


# ---------------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------------

def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata() -> dict:
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": _loadavg()}


def _by_seed(commands: list[dict], seeds, rng: random.Random) -> dict[int, list[dict]]:
    """Each seed's commands in a seeded order; shared commands go with the
    first seed."""
    out = {}
    for i, seed in enumerate(seeds):
        cmds = [c for c in commands
                if (c.get("shared") and i == 0) or (c["seed"] == seed and not c.get("shared"))]
        rng.shuffle(cmds)
        out[seed] = cmds
    return out


class Tally:
    """Accumulates correctness over the passes of one run."""

    def __init__(self, workload: str, golden: dict):
        self.workload, self.golden = workload, golden
        self.attempted = self.failed = self.matched = self.reports = 0
        self.peak_kib = 0

    def add(self, result: dict) -> dict:
        got = check_pass(self.workload, result, self.golden)
        self.attempted += got["checks"]
        self.failed += got["failed"]
        self.matched += got["matched"]
        self.reports += got["reports"]
        self.peak_kib = max(self.peak_kib, result["peak_kib"])
        return got

    @property
    def report_match(self) -> float:
        return self.matched / self.reports if self.reports else 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.reports > 0 and self.matched == self.reports


def measure(workload: str, seeds, seconds: float, rng: random.Random,
            work: Path) -> tuple[dict, Tally, dict]:
    """Untraced passes until ``seconds`` is used (at least one per seed).

    verdict_s is the sum over the seeds of the median pass time.  Returns
    the end-to-end metrics, the tally, and the samples behind them."""
    commands, setup_times = setup(workload, work, False, SETUP_REPEATS)
    print(f"# {workload} setup times: {' '.join(f'{t:.4f}' for t in setup_times)} s")
    per_seed = _by_seed(commands, seeds, rng)
    cycle = list(seeds)
    rng.shuffle(cycle)
    tally = Tally(workload, load_golden())
    times: dict[int, list[float]] = {s: [] for s in cycle}
    checks: dict[int, int] = {}
    t0 = time.perf_counter()
    k = 0
    while True:
        seed = cycle[k % len(cycle)]
        if k >= len(cycle) and (time.perf_counter() - t0
                                + statistics.median(times[seed]) > seconds):
            break
        result = run_pass(per_seed[seed], work, work / "reports", traced=False)
        got = tally.add(result)
        times[seed].append(result["wall"])
        checks[seed] = got["checks"]
        print(f"# {workload} seed {seed} pass {len(times[seed])}: {result['wall']:.4f} s, "
            f"{got['checks']} checks, {got['failed']} failed, "
            f"{got['matched']}/{got['reports']} reports match golden")
        k += 1
    verdict = sum(statistics.median(t) for t in times.values())
    metrics = {
        "verdict_s": verdict,
        "checks_per_s": sum(checks.values()) / verdict,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": tally.peak_kib / 1024,
        "failed_share": tally.failed / max(tally.attempted, 1),
        "report_match": tally.report_match,
    }
    return metrics, tally, {"setup_s": setup_times, "pass_s": times}


def trace(workload: str, seeds, rng: random.Random, work: Path, golden: dict | None,
          small: bool = False, log=print) -> tuple[dict, Tally, dict]:
    """One untraced and one traced pass per seed, adjacent in time.

    Returns per-layer metrics, the tally over every pass (reports checked
    against ``golden`` unless it is None), and the report hashes of each
    pass keyed by (seed, "plain" or "traced")."""
    commands, _ = setup(workload, work, small, 1)
    per_seed = _by_seed(commands, seeds, rng)
    cycle = list(seeds)
    rng.shuffle(cycle)
    tally = Tally(workload, golden)
    plain = traced = 0.0
    span_files: list[Path] = []
    hashes = {}
    for seed in cycle:
        for mode in ("plain", "traced"):
            result = run_pass(per_seed[seed], work, work / f"{mode}-{seed}",
                              traced=mode == "traced")
            got = tally.add(result)
            hashes[(seed, mode)] = got["hashes"]
            if mode == "traced":
                traced += result["wall"]
                span_files += [r["spans"] for r in result["records"] if r["spans"].is_file()]
            else:
                plain += result["wall"]
            log(f"# {workload} seed {seed} {mode} pass: {result['wall']:.4f} s, "
                f"{got['failed']} failed, {got['matched']}/{got['reports']} match golden")
    metrics = layer_metrics(span_files)
    metrics["trace.overhead_s"] = traced - plain
    return metrics, tally, hashes


def _record_run(entry: dict) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def workload_run(args) -> int:
    before = metadata()
    rng = random.Random(args.seed)
    work = WORK / args.workload
    samples = {}
    if args.trace:
        metrics, tally, _ = trace(args.workload, GOLDEN_SEEDS, rng, work, load_golden())
        units = per_layer_units()
    else:
        metrics, tally, samples = measure(args.workload, GOLDEN_SEEDS, args.seconds, rng, work)
        units = {m: END_TO_END_UNITS[m] for m in WORKLOAD_RUN_METRICS}
    after = _loadavg()
    _record_run({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "metrics": metrics, "samples": samples, "meta": before,
                 "loadavg_after": after})
    print(f"# {json.dumps(before, sort_keys=True)} loadavg after: {after}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def all_run(args) -> int:
    """Every workload at the chosen verifier seeds; one pass each."""
    seeds = GOLDEN_SEEDS if args.verifier_seed is None else (args.verifier_seed,)
    print(f"# {json.dumps(metadata(), sort_keys=True)}")
    bad = False
    for workload in WORKLOADS:
        metrics, _, _ = measure(workload, seeds, 0, random.Random(args.seed), WORK / workload)
        for name, unit in END_TO_END_UNITS.items():
            print(f"{workload} {name} {metrics[name]:.6g} {unit}")
        bad |= metrics["report_match"] < 1 or metrics["failed_share"] > 0
    print(f"# loadavg after: {_loadavg()}")
    return 1 if bad else 0


def record(args) -> int:
    """Rewrite golden.json from one untraced and one traced pass per seed;
    refuses when the traced reports differ from the untraced ones."""
    golden = {}
    for workload in WORKLOADS:
        _, tally, hashes = trace(workload, GOLDEN_SEEDS, random.Random(args.seed),
                                 WORK / workload, golden=None)
        for seed in GOLDEN_SEEDS:
            plain, traced = hashes[(seed, "plain")], hashes[(seed, "traced")]
            if plain != traced:
                print(f"{workload} seed {seed}: traced reports differ from untraced ones",
                      file=sys.stderr)
                return 1
            golden.setdefault(workload, {})[str(seed)] = plain
        if tally.failed:
            print(f"{workload}: checks failed while recording", file=sys.stderr)
            return 1
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true",
                      help="run every workload once and print every end-to-end metric")
    mode.add_argument("--record", action="store_true", help="rewrite golden.json")
    p.add_argument("--seed", type=int, default=2026,
                   help="orders the passes and commands (default 2026)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time of one --workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--verifier-seed", type=int, choices=GOLDEN_SEEDS, default=None,
                   help="with --all: run only this golden seed")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smashmod" / "cli.py").is_file():
        print(f"error: smashmod sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return all_run(args)
    if args.record:
        return record(args)
    return workload_run(args)


if __name__ == "__main__":
    sys.exit(main())
