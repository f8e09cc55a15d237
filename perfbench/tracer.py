"""Span tracer for smashmod, installed from outside the package.

Runs one smashmod CLI command in this interpreter after wrapping the public
functions that mark each layer boundary (poly, smash, modules, localize,
suites, cli).  Every wrapped call records a span (name, start, end, parent)
in memory; when the command ends the spans are summarised per name and the
summary is written as JSON.  The report the command writes is unchanged.

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json -- \
        verify --suite lemma2 --dims 1 --trials 3

Summary layout: {"spans": {name: {"calls", "s", "self_s"}}, "counters":
{name: number}, "span_count": n}.  ``s`` is inclusive time, counting only
spans with no ancestor of the same name; ``self_s`` is a span's duration
minus that of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.open: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value):
        if key not in self.counters or value > self.counters[key]:
            self.counters[key] = value

    def is_open(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self.open)

    def wrap(self, fn, name, probe=None):
        """A span-recording wrapper around fn.

        ``name`` is a string, or a callable mapping the call's positional
        arguments to one.  ``probe(args, result)`` runs after the span ends,
        so its cost is charged to the caller, not to the wrapped layer.
        """
        clock = time.perf_counter_ns
        open_spans = self.open
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        fixed = self.name_id_of(name) if isinstance(name, str) else None
        name_of = self.name_id_of

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if fixed is not None else name_of(name(args)))
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if probe is not None:
                probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        names = self.names
        calls = [0] * len(names)
        incl = [0] * len(names)
        self_ns = [0] * len(names)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                incl[nid] += dur[i]
        spans = {name: {"calls": calls[k], "s": incl[k] / 1e9, "self_s": self_ns[k] / 1e9}
                 for k, name in enumerate(names)}
        return {"spans": spans, "counters": dict(self.counters), "span_count": n}


def _replace_everywhere(original, replacement):
    """Rebind every reference to ``original`` held by a smashmod module global
    or class attribute: covers ``from .smash import omega`` style re-bindings
    and aliases such as ``Poly.__rmul__ = __mul__``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "smashmod" or mod_name.startswith("smashmod.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, type) and value.__module__.startswith("smashmod"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer-boundary functions of every smashmod module."""
    import smashmod.cli as cli
    import smashmod.localize as localize
    import smashmod.modules as modules
    import smashmod.poly as poly
    import smashmod.smash as smash
    import smashmod.suites as suites

    Poly = poly.Poly

    def mul_probe(args, result):
        a, b = args
        if not isinstance(result, Poly):
            return
        tb = b.terms if isinstance(b, Poly) else None
        tracer.count("poly.mul.term_pairs", len(a.terms) * (len(tb) if tb is not None else 1))
        if (type(b) is Fraction
                or any(type(c) is Fraction for c in a.terms.values())
                or (tb is not None and any(type(c) is Fraction for c in tb.values()))):
            tracer.count("poly.mul.rational_calls")
        tracer.peak("poly.mul.peak_degree", result.total_degree())

    def pow_probe(args, result):
        tracer.count("poly.pow.out_terms", len(result.terms))

    def divide_probe(args, result):
        if result is not None:
            tracer.count("poly.exact_divide.hits")

    def bracket_count(fn):
        def counted(self, other):
            if tracer.is_open("modules.validate"):
                tracer.count("modules.validate.pairs")
            return fn(self, other)
        counted.__wrapped__ = fn
        return counted

    targets = [
        (Poly, "__mul__", "poly.mul", mul_probe),
        (Poly, "__pow__", "poly.pow", pow_probe),
        (Poly, "partial_derivative", "poly.partial_derivative", None),
        (Poly, "exact_divide", "poly.exact_divide", divide_probe),
        (smash, "smash_bracket", "smash.smash_bracket", None),
        (smash, "omega", "smash.omega", None),
        (smash, "omega_multi", "smash.omega_multi", None),
        (smash, "verify_identity", lambda args: f"smash.verify_identity.{args[0]}", None),
        (modules.AVModule, "validate", "modules.validate", None),
        (modules.AVModule, "act_smash", "modules.act_smash", None),
        (modules.AVModule, "annihilates", "modules.annihilates", None),
        (modules, "oracle_order", "modules.oracle_order", None),
        (modules, "min_annihilating_order", "modules.min_annihilating_order", None),
        (localize.LocalizedModule, "act", "localize.act", None),
        (localize.LocalizedPoly, "reduce", "localize.reduce", None),
        (localize.LocalizedDerivation, "reduce", "localize.reduce", None),
        (localize.LocalizedModuleElement, "reduce", "localize.reduce", None),
        (localize, "verify_localized", lambda args: f"localize.verify_localized.{args[0]}", None),
        (suites, "run_suite", "suites.run_suite", None),
        (cli, "load_module_spec", "cli.load_module_spec", None),
        (cli.ReportEnvelope, "to_dict", "cli.report", None),
        (cli, "render_json", "cli.report", None),
    ]
    for owner, attr, name, probe in targets:
        original = vars(owner)[attr]
        _replace_everywhere(original, tracer.wrap(original, name, probe))
    bracket = vars(poly.Derivation)["bracket"]
    _replace_everywhere(bracket, bracket_count(bracket))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.stderr.write("usage: tracer.py --spans OUT.json -- <smashmod cli arguments>\n")
        return 2
    out, cli_args = Path(argv[1]), argv[3:]
    tracer = Tracer()
    install(tracer)
    import smashmod.cli as cli
    try:
        code = cli.main(cli_args)
    finally:
        out.write_text(json.dumps(tracer.summary(), sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
