"""Command-line surface: verify suites, order reports, annihilation profiles.

Reports are JSON-first and deterministic: identical (seed, config) produce
byte-identical output.  A verify report lists its records in the order of
their compact JSON text, ``json.dumps(record, sort_keys=True)``, the one form
in which a record is sorted, sent between processes and merged: each share
of the trials sorts its own texts, a forked share sends them one per line
after a header line of its counts, and the sorted shares are merged and
decoded one record at a time as the report is rendered.  A report is written
into its destination (stdout or ``--out``) as it is rendered, in pieces of at
most 4096 JSON tokens or 128 text lines, so no copy of the whole report text
is ever built; a failed write, or a share whose records stop short, exits 2
and may leave a partial report.  Exit codes: 0 all checks passed, 1 at least
one exact check failed, 2 usage / parse / load / validation / write errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple, Optional

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


class ReportEnvelope(NamedTuple):
    """Top-level machine-readable report: config echo, results, summary."""

    config: dict
    results: list
    failed: Optional[int] = None  # how many results failed; counted from them when None

    def to_dict(self) -> dict:
        """The report of ``results``, in the order the caller gave them."""
        results, failed = self.results, self.failed
        if failed is None:
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


# strings joined into one write: one write per JSON token or text line would
# cost a system call each on an unbuffered stdout (python -u,
# PYTHONUNBUFFERED); either batch of a verify report is about 25 KB
_JSON_TOKENS_PER_WRITE = 4096
_TEXT_LINES_PER_WRITE = 128


def _write_batched(chunks, fh, per_write: int) -> None:
    """Write the strings ``chunks`` to the text stream ``fh``, joined
    ``per_write`` at a time."""
    it = iter(chunks)
    for first in it:
        fh.write("".join(chain((first,), islice(it, per_write - 1))))


def render_json(envelope: dict, fh) -> None:
    """Write ``json.dumps(envelope, sort_keys=True, indent=2) + "\\n"`` to the
    text stream ``fh`` as the encoder yields it, never holding the whole text."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(envelope)
    _write_batched(chain(chunks, ("\n",)), fh, _JSON_TOKENS_PER_WRITE)


def render_text(envelope: dict, fh) -> None:
    """Write the human-readable rendering, derived from the JSON structure, to
    the text stream ``fh``."""
    _write_batched(_text_lines(envelope), fh, _TEXT_LINES_PER_WRITE)


def _text_lines(envelope: dict):
    yield f"smashmod {envelope['tool']['version']}\n"
    yield "config: " + json.dumps(envelope["config"], sort_keys=True) + "\n"
    for r in envelope["results"]:
        status = r.get("status", "?")
        label = r.get("identity", r.get("kind", "result"))
        detail = {k: v for k, v in r.items() if k not in ("identity", "status", "witness", "kind")}
        yield f"[{status.upper():4}] {label} {json.dumps(detail, sort_keys=True)}\n"
        if r.get("witness"):
            yield f"        witness: {json.dumps(r['witness'], sort_keys=True)}\n"
    s = envelope["summary"]
    yield f"summary: {s['passed']}/{s['total']} passed, {s['failed']} failed\n"


def _emit(envelope: ReportEnvelope, args) -> int:
    data = envelope.to_dict()
    render = render_json if args.format == "json" else render_text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            render(data, fh)
    else:
        render(data, sys.stdout)
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
    data = module_to_dict(module)  # refuses a module the loader could not read, before any file
    with open(path, "w", encoding="utf-8") as fh:
        render_json(data, fh)


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

def _share_records(suites: list[str], config: RunConfig,
                   share: tuple[int, int]) -> tuple[list[str], int]:
    """The compact JSON texts of the report records of share ``share`` (see
    ``run_suite``) of the suites, sorted, and how many of them failed."""
    from .suites import run_suite  # read when called, so a rebound run_suite is the one run
    texts, failed = [], 0
    try:
        for s in suites:
            for report in run_suite(s, config, share):
                failed += not report.passed
                texts.append(json.dumps({**report.to_dict(), "suite": s}, sort_keys=True))
    except DegreeOverflow as e:  # the suites' products grow with both options
        raise PolyError(f"{e}; lower --degree ({config.max_degree}) or --pmax "
                        f"({config.p_max})") from e
    texts.sort()
    return texts, failed


def _send_share(suites: list[str], config: RunConfig, share: tuple[int, int], fh) -> None:
    """Check share ``share`` of the suites, then write to the text stream ``fh``
    the header line ``"<record count> <failed count>"`` and its sorted record
    texts, one per line: ``json.dumps`` escapes every control character, so a
    compact JSON text holds no newline."""
    texts, failed = _share_records(suites, config, share)
    fh.write(f"{len(texts)} {failed}\n")
    fh.writelines(text + "\n" for text in texts)


def _received(fh, count: int, share: tuple[int, int]):
    """The ``count`` record texts that the child of share ``share`` writes,
    one per line, after its header line, read from the text stream ``fh``;
    OSError when the stream ends before them or a line before its newline."""
    sent = 0
    for line in islice(fh, count):
        if not line.endswith("\n"):
            break
        yield line[:-1]
        sent += 1
    if sent < count:
        raise OSError(f"share {share[0]} of {share[1]} sent {sent} of its "
                      f"{count} records; the report is cut short")


class _Decoded(list):
    """The ``count`` records of a verify report, decoded one at a time from the
    compact texts that the iterator ``texts`` yields, while a renderer walks
    them once.  It is a ``list`` to the JSON encoder, whose indenting (pure
    Python) ``iterencode`` only asks its truth and iterates it; it stores no
    item, so ``to_dict`` is given the failed count."""

    def __init__(self, texts, count: int):
        super().__init__()
        self._texts, self._count = texts, count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return map(json.loads, self._texts)


def cmd_verify(args) -> int:
    """Run share 0 of n = min(CPUs in the affinity mask, trials) here and fork a
    child for each other share.  A child checks its share, then writes to a
    text pipe the header line "<record count> <failed count>" and its sorted
    record texts, one per line, or nothing if its share fails.  This process
    reads every header line before it writes a byte: the counts give the exit
    status and the summary, and the texts of the shares are merged
    (``heapq.merge``) and decoded one record at a time as the report is
    rendered, so it holds its own share's texts and the buffered lines of each
    pipe, never a child's records.  The report is the same for every n
    (``taskset -c 0`` gives n = 1).  If any share fails before its header,
    the children are reaped and the plan runs again here as the one share
    (0, 1), which raises the error that a serial run meets first; a child's
    stream that ends short of its header's count, or in a line before its
    newline, raises OSError with the report cut short."""
    import heapq  # here, so that order and annihilator import none of these
    import signal

    from .suites import RunConfig, max_shares, plan_suites

    given = {"max_degree": args.degree, "trials": args.trials, "seed": args.seed,
             "p_max": args.pmax}
    if args.dims is not None:
        dims = []
        for item in filter(None, args.dims.split(",")):  # empty items skipped, as in --suite
            try:
                dims.append(int(item))
            except ValueError:
                raise ValueError(f"--dims item {item!r} is not an integer") from None
        given["dims"] = tuple(dims)
    config = RunConfig(**{k: v for k, v in given.items() if v is not None})
    suites = plan_suites(args.suite, config)
    n = (min(len(os.sched_getaffinity(0)), max_shares(suites, config))
         if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)
    children = []  # (pid, read end of its pipe) of shares 1 .. n-1

    def reap():  # no child outlives the command, whatever happened
        while children:
            pid, fh = children.pop()
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    try:
        try:
            for k in range(1, n):
                r, w = os.pipe()
                pid = os.fork()
                if pid == 0:  # the child: send share k, never return
                    try:
                        with os.fdopen(w, "w", encoding="utf-8") as fh:
                            _send_share(suites, config, (k, n), fh)
                    finally:
                        os._exit(0)
                os.close(w)
                children.append((pid, os.fdopen(r, encoding="utf-8")))
            own, failed = _share_records(suites, config, (0, n))
            counts = []
            for _, fh in children:  # a failed share's header is empty: ValueError
                count, child_failed = map(int, fh.readline().split())
                counts.append(count)
                failed += child_failed
        except Exception:  # any error of any share: the serial run below raises it again
            if n == 1:
                raise
            reap()
            (own, failed), counts = _share_records(suites, config, (0, 1)), []
        texts = heapq.merge(own, *(_received(fh, count, (k, n)) for k, ((_, fh), count)
                                   in enumerate(zip(children, counts), 1)))
        results = _Decoded(texts, len(own) + sum(counts))
        return _emit(ReportEnvelope({"command": "verify", "suites": suites, **config.to_dict()},
                                    results, failed), args)
    finally:
        reap()


def cmd_order(args) -> int:
    module = _resolve_module(args)
    lie = module.lie_map_order()
    # the oracle searches up to rank^2, the bound the report checks, and
    # answers rank^2 + 1 when no order up to it works
    bound = module.rank ** 2
    oracle = oracle_order(module, bound)
    record = {
        "kind": "order",
        "identity": "order-bound",
        "module": module.name or args.module,
        "dim": module.dim,
        "rank": module.rank,
        "lie_map_order": lie,
        "oracle_order": oracle,
        "rank_squared_bound": bound,
        "status": "pass" if lie == oracle <= bound else "fail",
    }
    return _emit(ReportEnvelope({"command": "order", "module": args.module, "n_max": bound},
                                [record]), args)


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
    return _emit(ReportEnvelope({"command": "annihilator", "module": args.module,
                                 "f": args.f, "eta": args.eta}, [record]), args)


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
