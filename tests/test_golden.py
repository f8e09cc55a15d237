"""Golden reports: the sha256 of small CLI reports, pinned byte for byte.

A refactor of the kernel must leave every report unchanged.  These hashes
were recorded before the library was consolidated; a mismatch means the
output changed, so fix the code, not the hash.
"""

import hashlib

import pytest

from smashmod.cli import main

VERIFY_ALL = ["verify", "--suite", "all", "--dims", "1,2", "--trials", "6",
              "--pmax", "2", "--degree", "4"]

# (test id, CLI arguments, exit code, sha256 of the JSON report)
GOLDEN = [
    ("verify-all-2026", VERIFY_ALL + ["--seed", "2026"], 0,
     "74afb241b619ea8c8767e683e83f620c14dfc23816cc03950c56af5cb5e54beb"),
    ("verify-all-7", VERIFY_ALL + ["--seed", "7"], 0,
     "f6f3f7d27e4ee7fb13da380c77091f2a1c9fd57ecaa016f6591c97f51c8a1ef3"),
    # dim 3 is outside the localized family's dims, which skip it
    ("verify-all-dims-1-3-7", ["verify", "--suite", "all", "--dims", "1,2,3", "--trials", "4",
                               "--pmax", "2", "--degree", "4", "--seed", "7"], 0,
     "9ea82f585b0c982880d02043c80cdeff2513b41c4fee31e6a6f9e50f7697aedd"),
    # its failing witness is the only report text printed in the doubled
    # variables x1, y1
    ("negative-control", ["verify", "--suite", "negative-control"], 1,
     "88242e492792c4a22e1f87826156562f14c7b5ce2b01480212247491b3cd2136"),
    ("order-jets", ["order", "--module", "zoo:jets", "--dim", "1", "--n", "2"], 0,
     "c15a99911ed5648c37138c33bd4a4721dc99e5aa16de03eedee2df48fbccd5fe"),
    ("order-forms", ["order", "--module", "zoo:forms", "--dim", "2"], 0,
     "5653788eda6a244d2d14af2f47fa6939c53c20fbebcb1ec8334e3d33cfb081c3"),
    ("order-adjoint", ["order", "--module", "zoo:adjoint", "--dim", "2"], 0,
     "9de7ddeaff6a031e97178f9c1e44b9cf1fe02c36ce76128c0d8e62f40bdc7cfe"),
    ("order-twist", ["order", "--module", "zoo:twist", "--lam", "1/2"], 0,
     "641e31c5a9712699064494dd66752a38e7f732bedae251012833b13d8283a167"),
    ("annihilator-jets", ["annihilator", "--module", "zoo:jets", "--dim", "1", "--n", "3",
                          "--f", "x1^2 + 1", "--eta", "x1*d1"], 0,
     "3789fd9d152f0966628de8fc9e72530f63d16d1478ff73c400a07dac9ee85590"),
]


@pytest.mark.parametrize("argv, code, digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_report_hash(tmp_path, argv, code, digest):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
