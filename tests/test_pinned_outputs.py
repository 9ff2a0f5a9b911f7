"""Reference outputs of the default five-scene benchmark, pinned exactly.

Every refactor of the per-scene pipeline must leave these unchanged: the
tracks each scene keeps per patch size, and every recognition rate of
``report.rows`` as an exact fraction of queries. A rate is pinned through
``Fraction(rate).limit_denominator(10**6)``, which recovers the count
quotient (``sv`` averages its trials, so its denominator carries their
number); one query answered differently moves the fraction. Reads the
session's ``full_bench`` run, so it costs no benchmark run of its own.
"""

from fractions import Fraction

import pytest

N_TRACKS = {f"{scene}/{size}": 140
            for scene in ("plane0", "relief0", "plane1", "relief1", "plane2")
            for size in (11, 21)}

RATES = {
    ("plane0", 11): {"sv": "228/839", "mv": "403/839", "keepall": "639/839", "rhog": "792/839"},
    ("plane0", 21): {"sv": "241/836", "mv": "21/38", "keepall": "663/836", "rhog": "196/209"},
    ("relief0", 11): {"sv": "140/533", "mv": "258/533", "keepall": "427/533", "rhog": "512/533"},
    ("relief0", 21): {"sv": "729/2710", "mv": "147/271", "keepall": "227/271", "rhog": "513/542"},
    ("plane1", 11): {"sv": "1121/4200", "mv": "89/210", "keepall": "659/840", "rhog": "27/28"},
    ("plane1", 21): {"sv": "1222/4195", "mv": "469/839", "keepall": "717/839", "rhog": "808/839"},
    ("relief1", 11): {"sv": "189/605", "mv": "65/121", "keepall": "207/242", "rhog": "115/121"},
    ("relief1", 21): {"sv": "27/82", "mv": "331/492", "keepall": "217/246", "rhog": "469/492"},
    ("plane2", 11): {"sv": "347/1400", "mv": "29/70", "keepall": "209/280", "rhog": "799/840"},
    ("plane2", 21): {"sv": "1133/4200", "mv": "103/210", "keepall": "27/35", "rhog": "113/120"},
    ("ALL", 11): {"sv": "183/680", "mv": "125/272", "keepall": "1383/1768", "rhog": "3373/3536"},
    ("ALL", 21): {"sv": "5099/17745", "mv": "656/1183", "keepall": "972/1183", "rhog": "3365/3549"},
}


def test_tracks_per_scene_and_patch_size(full_bench):
    assert full_bench["report"]["n_tracks"] == N_TRACKS


def test_rows_cover_every_pinned_rate(full_bench):
    got = sorted((r["scene"], r["patch_size"], r["method"])
                 for r in full_bench["report"]["rows"])
    want = sorted((scene, size, m) for (scene, size), per in RATES.items()
                  for m in per)
    assert got == want


@pytest.mark.parametrize("scene, size", list(RATES), ids=[f"{s}-{p}" for s, p in RATES])
def test_rates_are_pinned_fractions(full_bench, scene, size):
    rows = {r["method"]: r for r in full_bench["report"]["rows"]
            if r["scene"] == scene and r["patch_size"] == size}
    got = {m: str(Fraction(r["rate"]).limit_denominator(10 ** 6))
           for m, r in rows.items()}
    assert got == RATES[(scene, size)]
    assert {r["metric"] for r in rows.values()} == {"l2"}
