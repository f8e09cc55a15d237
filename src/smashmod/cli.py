"""Command-line surface: verify suites, order reports, annihilation profiles.

Reports are JSON-first and deterministic: identical (seed, config) produce
byte-identical output.  Exit codes: 0 all checks passed, 1 at least one
exact check failed, 2 usage / parse / load / validation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .modules import (
    AVModule,
    min_annihilating_order,
    module_from_dict,
    module_to_dict,
    oracle_order,
    zoo,
)
from .poly import DegreeOverflow, PolyError, parse_derivation, parse_poly

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2

# verify's names from ``suites``, which order and annihilator never load:
# verify imports them when it runs, and ``cli.<name>`` reads them from suites
_SUITES_NAMES = ("RunConfig", "plan_suites", "run_suite")


def __getattr__(name: str):
    if name in _SUITES_NAMES:
        from . import suites
        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ReportEnvelope:
    """Top-level machine-readable report: config echo, results, summary."""

    __slots__ = ("config", "results")

    def __init__(self, config: dict):
        self.config = config
        self.results = []

    def to_dict(self) -> dict:
        results = sorted(self.results, key=lambda r: json.dumps(r, sort_keys=True))
        failed = sum(1 for r in results if r.get("status") == "fail")
        return {
            "tool": {"name": "smashmod", "version": __version__},
            "config": self.config,
            "results": results,
            "summary": {
                "total": len(results),
                "passed": len(results) - failed,
                "failed": failed,
            },
            "exit_status": EXIT_FAILURES if failed else EXIT_OK,
        }


def render_json(envelope: dict) -> str:
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def render_text(envelope: dict) -> str:
    """Human-readable rendering derived from the JSON structure."""
    lines = [f"smashmod {envelope['tool']['version']}"]
    cfg = envelope["config"]
    lines.append("config: " + json.dumps(cfg, sort_keys=True))
    for r in envelope["results"]:
        status = r.get("status", "?")
        label = r.get("identity", r.get("kind", "result"))
        detail = {k: v for k, v in r.items() if k not in ("identity", "status", "witness", "kind")}
        lines.append(f"[{status.upper():4}] {label} {json.dumps(detail, sort_keys=True)}")
        if r.get("witness"):
            lines.append(f"        witness: {json.dumps(r['witness'], sort_keys=True)}")
    s = envelope["summary"]
    lines.append(f"summary: {s['passed']}/{s['total']} passed, {s['failed']} failed")
    return "\n".join(lines) + "\n"


def _emit(envelope: ReportEnvelope, args) -> int:
    data = envelope.to_dict()
    text = render_json(data) if args.format == "json" else render_text(data)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return data["exit_status"]


# ---------------------------------------------------------------------------------
# module loading
# ---------------------------------------------------------------------------------

def load_module_spec(path: str) -> AVModule:
    """Load, parse and validate a module-definition JSON file."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise PolyError(f"cannot read module file {path!r}: {e}") from e
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise PolyError(f"module file {path!r} is not valid JSON: {e}") from e
    return module_from_dict(data)


def save_module_spec(module: AVModule, path: str) -> None:
    Path(path).write_text(render_json(module_to_dict(module)), encoding="utf-8")


def _resolve_module(args) -> AVModule:
    spec = args.module
    params = {key: getattr(args, key) for key in ("dim", "rank", "n", "lam")
              if getattr(args, key) is not None}
    if spec.startswith("zoo:"):
        return zoo(spec[4:], **params)
    if params:  # a module file fixes its own parameters
        raise ValueError(f"--{next(iter(params))} applies to zoo: modules only, "
                         f"not to the module file {spec!r}")
    return load_module_spec(spec)


# ---------------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------------

def _share_records(suites: list[str], config: RunConfig, share: tuple[int, int]) -> list:
    """The report records of share ``share`` (see ``run_suite``) of the suites."""
    from .suites import run_suite  # read when called, so a rebound run_suite is the one run
    return [{**report.to_dict(), "suite": s}
            for s in suites for report in run_suite(s, config, share)]


def cmd_verify(args) -> int:
    """Run share 0 of n = min(CPUs in the affinity mask, trials) here and fork a
    child for each other share, which pipes back its pickled records or error.
    The sorted report is the same for every n (``taskset -c 0`` gives n = 1);
    a failure raises the error of the lowest-numbered failing share."""
    import pickle  # here, so that order and annihilator import none of these
    import signal

    from .suites import RunConfig, max_shares, plan_suites

    given = {"max_degree": args.degree, "trials": args.trials, "seed": args.seed,
             "p_max": args.pmax}
    if args.dims is not None:
        given["dims"] = tuple(int(d) for d in args.dims.split(",") if d != "")
    config = RunConfig(**{k: v for k, v in given.items() if v is not None})
    suites = plan_suites(args.suite, config)
    envelope = ReportEnvelope(config={"command": "verify", "suites": suites,
                                      **config.to_dict()})
    n = (min(len(os.sched_getaffinity(0)), max_shares(suites, config))
         if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)
    children = []  # (pid, read end of its pipe) of shares 1 .. n-1
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: send the outcome of share k, never return
                try:
                    try:
                        outcome = _share_records(suites, config, (k, n))
                    except Exception as e:
                        outcome = e
                    with os.fdopen(w, "wb") as fh:
                        fh.write(pickle.dumps(outcome))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        envelope.results = _share_records(suites, config, (0, n))
        for k, (_, fh) in enumerate(children, start=1):
            data = fh.read()
            outcome = pickle.loads(data) if data else ChildProcessError(
                f"share {k} of {n} ended without a result")
            if isinstance(outcome, Exception):
                raise outcome
            envelope.results.extend(outcome)
    except DegreeOverflow as e:  # the suites' products grow with both options
        raise PolyError(f"{e}; lower --degree ({config.max_degree}) or --pmax "
                        f"({config.p_max})") from e
    finally:  # no child outlives the command, whatever happened
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return _emit(envelope, args)


def cmd_order(args) -> int:
    if args.nmax is not None and args.nmax < 0:
        raise ValueError("--nmax must be >= 0")
    module = _resolve_module(args)
    lie = module.lie_map_order()
    n_max = args.nmax if args.nmax is not None else module.rank ** 2
    oracle = oracle_order(module, n_max)
    bound = module.rank ** 2
    # oracle_order answers n_max + 1 when no order up to n_max works
    ok = lie == oracle <= n_max and lie <= bound
    record = {
        "kind": "order",
        "identity": "order-bound",
        "module": module.name or args.module,
        "dim": module.dim,
        "rank": module.rank,
        "lie_map_order": lie,
        "oracle_order": oracle,
        "rank_squared_bound": bound,
        "status": "pass" if ok else "fail",
    }
    envelope = ReportEnvelope(config={"command": "order", "module": args.module,
                                      "n_max": n_max})
    envelope.results.append(record)
    return _emit(envelope, args)


def cmd_annihilator(args) -> int:
    module = _resolve_module(args)
    f = parse_poly(args.f, module.dim)
    eta = parse_derivation(args.eta, module.dim)
    order = min_annihilating_order(module, f, eta)
    record = {
        "kind": "annihilator",
        "identity": "annihilation-profile",
        "module": module.name or args.module,
        "f": str(f),
        "eta": str(eta),
        "min_annihilating_order": order,
        "levels_checked_exactly": module.order,
        "automatic_above": module.order,
        "status": "pass",
    }
    if f.is_constant():
        record["note"] = "constant f: every level >= 1 vanishes identically"
    envelope = ReportEnvelope(config={"command": "annihilator", "module": args.module,
                                      "f": args.f, "eta": args.eta})
    envelope.results.append(record)
    return _emit(envelope, args)


# ---------------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------------

def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="report format (default json)")
    p.add_argument("--out", default=None, help="write the report to this path")


def _add_module_flags(p: argparse.ArgumentParser):
    p.add_argument("--module", required=True,
                   help="zoo:<name> (dmodule, forms, adjoint, jets, twist) or a JSON file path")
    p.add_argument("--dim", type=int, default=None, help="zoo parameter: dimension")
    p.add_argument("--rank", type=int, default=None, help="zoo parameter: rank (dmodule)")
    p.add_argument("--n", type=int, default=None, help="zoo parameter: jet order")
    p.add_argument("--lam", type=str, default=None, help="zoo parameter: twist weight (rational)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smashmod",
        description="Exact verification kernel for modules over polynomial vector fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run exact identity suites")
    v.add_argument("--suite", default="all",
                   help="comma-separated suite names (default all); see docs for the list")
    # no defaults here: cmd_verify passes RunConfig only the options given
    v.add_argument("--dims", help="comma-separated dimensions")
    v.add_argument("--degree", type=int, help="max degree of sampled polynomials")
    v.add_argument("--trials", type=int, help="seeded samples per dimension")
    v.add_argument("--seed", type=int, help="PRNG seed (echoed in reports)")
    v.add_argument("--pmax", type=int, help="exhaustive level range 1..pmax")
    _add_output_flags(v)
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("order", help="Lie-map order, oracle order and the rank^2 bound")
    _add_module_flags(o)
    o.add_argument("--nmax", type=int, default=None,
                   help="oracle search bound (default rank^2)")
    _add_output_flags(o)
    o.set_defaults(func=cmd_order)

    a = sub.add_parser("annihilator", help="minimal uniformly annihilating level for (f, eta)")
    _add_module_flags(a)
    a.add_argument("--f", required=True, help="polynomial, e.g. 'x1^2 - x2'")
    a.add_argument("--eta", required=True, help="vector field, e.g. 'x1*d1 + d2'")
    _add_output_flags(a)
    a.set_defaults(func=cmd_annihilator)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolyError, ValueError, ZeroDivisionError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
