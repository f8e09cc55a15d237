"""Workloads of the smashmod benchmark and their set-up step.

Each workload is a list of smashmod CLI commands per verifier seed.  Run as a
script, this file is the set-up step of one benchmark run: a fresh
interpreter imports smashmod, generates the workload's inputs (module files
and seeded f/eta strings) and writes the command list as JSON.

    PYTHONPATH=src python3 perfbench/workloads.py identities perfbench/.work/identities
    PYTHONPATH=src python3 perfbench/workloads.py modules DIR --small

``--small`` selects the reduced sizes the benchmark's own tests use.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

WORKLOADS = ("identities", "localized", "modules")

# The verifier seeds every run covers: the two seeds the ROADMAP times.
# Golden report hashes are recorded for each of them.
GOLDEN_SEEDS = (2026, 7)

# The 19 modules of the acceptance small_zoo(), listed here so the benchmark
# does not depend on the test suite: (zoo constructor, arguments).
ZOO = (
    ("trivial_dmodule", (1, 1)), ("trivial_dmodule", (2, 2)),
    ("differential_forms", (1,)), ("differential_forms", (2,)),
    ("tangent_adjoint", (1,)), ("tangent_adjoint", (2,)),
    ("jet_module", (1, 0)), ("jet_module", (1, 1)), ("jet_module", (1, 2)),
    ("jet_module", (1, 3)), ("jet_module", (2, 0)), ("jet_module", (2, 1)),
    ("jet_module", (2, 2)),
    ("twist", (0,)), ("twist", (1,)), ("twist", (-1,)), ("twist", (2,)),
    ("twist", ("1/2",)),
    ("forms_x_adjoint", (2,)),
)
# Cheap modules for the benchmark's own tests.
SMALL_ZOO = (ZOO[0], ZOO[2], ZOO[5], ZOO[8], ZOO[17])


def _verify_argv(workload: str, seed: int, small: bool) -> list[str]:
    if workload == "identities":
        dims, trials, pmax = ("1,2", "4", "2") if small else ("1,2,3", "100", "4")
        return ["verify", "--suite", "identities,omega-coherence", "--dims", dims,
                "--degree", "4", "--trials", trials, "--pmax", pmax, "--seed", str(seed)]
    trials = "6" if small else "100"
    return ["verify", "--suite", "localized", "--dims", "1,2", "--degree", "4",
            "--trials", trials, "--seed", str(seed)]


def _build_module(kind: str, args):
    from fractions import Fraction

    from smashmod import modules

    if kind == "forms_x_adjoint":
        dim, = args
        return modules.tensor_product(modules.differential_forms(dim),
                                      modules.tangent_adjoint(dim))
    if kind == "twist":
        return modules.twist(Fraction(args[0]))
    return getattr(modules, kind)(*args)


def _monomial(rng: random.Random, dim: int, low: int, high: int) -> str:
    exps = [0] * dim
    for _ in range(rng.randint(low, high)):
        exps[rng.randrange(dim)] += 1
    return "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(exps) if e)


def field_strings(seed: int, name: str, dim: int, rank: int) -> tuple[str, str]:
    """Seeded (f, eta) CLI strings for one module: f is a signed monomial plus
    a constant (degree <= 2 for rank >= 4, else <= 3), eta a monomial times
    one coordinate field."""
    rng = random.Random(f"{seed}|annihilator|{name}")
    top = 2 if rank >= 4 else 3
    f = f"{rng.choice((-3, -2, -1, 1, 2, 3))}*{_monomial(rng, dim, 1, top)}"
    offset = rng.randint(-2, 2)
    if offset:
        f += f" {'+' if offset > 0 else '-'} {abs(offset)}"
    coeff = _monomial(rng, dim, 0, 2)
    eta = (f"{rng.choice((-2, -1, 1, 2))}*" + (f"{coeff}*" if coeff else "")
           + f"d{rng.randint(1, dim)}")
    return f, eta


def _write_module_files(out_dir: Path, zoo) -> list[dict]:
    """Write each module once as a module-definition file.

    Set-up only writes files: every timed ``order``/``annihilator`` call
    loads and validates its file again, as a user's run does.  So the zoo
    constructors' own validation is skipped here, in this set-up process.
    """
    from smashmod import cli, modules
    from smashmod.smash import VerificationReport

    def mark_valid(self):
        self._validated = True
        return VerificationReport("module-bracket-compatibility", {}, "pass")

    real_validate = modules.AVModule.validate
    modules.AVModule.validate = mark_valid
    try:
        built = [_build_module(kind, args) for kind, args in zoo]
    finally:
        modules.AVModule.validate = real_validate
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, module in enumerate(built):
        file = f"{k:02d}_" + re.sub(r"[^A-Za-z0-9]+", "_", module.name).strip("_") + ".json"
        cli.save_module_spec(module, str(out_dir / file))
        entries.append({"name": module.name, "file": file,
                        "dim": module.dim, "rank": module.rank})
    return entries


def build_commands(workload: str, work: Path, small: bool = False) -> list[dict]:
    """The workload's commands for every golden seed.

    Each command is {"seed", "label", "argv", "cwd"}, plus "shared": True
    for a seed-independent command, which a run makes once, with its first
    seed.  ``cwd`` is relative to ``work``; module files are named relative
    to it, so reports do not depend on where the work directory lives.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    if workload != "modules":
        return [{"seed": s, "label": "verify", "argv": _verify_argv(workload, s, small),
                 "cwd": "."} for s in GOLDEN_SEEDS]
    entries = _write_module_files(work / "modules", SMALL_ZOO if small else ZOO)
    # order reports do not depend on the seed: one shared command per file,
    # its golden hash filed under the first golden seed
    commands = [{"seed": GOLDEN_SEEDS[0], "shared": True, "label": f"order {e['name']}",
                 "argv": ["order", "--module", e["file"]], "cwd": "modules"}
                for e in entries]
    for seed in GOLDEN_SEEDS:
        for e in entries:
            f, eta = field_strings(seed, e["name"], e["dim"], e["rank"])
            commands.append({"seed": seed, "label": f"annihilator {e['name']}",
                             "argv": ["annihilator", "--module", e["file"],
                                      f"--f={f}", f"--eta={eta}"], "cwd": "modules"})
    return commands


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    small = "--small" in argv
    args = [a for a in argv if a != "--small"]
    if len(args) != 2:
        sys.stderr.write("usage: workloads.py WORKLOAD WORK_DIR [--small]\n")
        return 2
    work = Path(args[1])
    work.mkdir(parents=True, exist_ok=True)
    import smashmod  # noqa: F401  (set-up includes the import a CLI run pays)
    commands = build_commands(args[0], work, small)
    (work / "commands.json").write_text(json.dumps(commands, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
