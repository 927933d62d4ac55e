"""`mlfsi all` at n=4 and n=8, and the refine run, against the golden
artifacts of `golden/regen.py`.

For `mlfsi all`, the mesh hash, the strings and the integer fields must
match exactly, and every other float to GOLDEN_RTOL relative. The two
identity residuals sit at rounding level, where a relative bound says
nothing, so they must match to RESIDUAL_ATOL times the energy of their data
instead. Every JSON artifact must also be strict JSON, with no NaN or
Infinity. The refine run (`mlfsi mesh` and `mlfsi probe` up to n=32) must
match byte for byte: its mesh hash and its whole `probe.json`.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from golden.regen import FULL_ARTIFACTS, GOLDEN, SIZES, energy_sample, run_all, run_refine

GOLDEN_RTOL = 1e-11
RESIDUAL_ATOL = 1e-14
# Integer columns of the CSV artifacts; `.17g` writes an integral float like one.
INTEGER_COLUMNS = ("iters",)
GOLDEN_MESH_SHA256 = json.loads((GOLDEN / "mesh_sha256.json").read_text())


def residual_scale(key, doc):
    """The data energy that bounds a residual field, or None for any other field.

    The sweep's dissipation residual is already divided by the unit energy of
    its probe; the balance residual is absolute, against the initial energy.
    """
    if key == "dissipation_residual":
        return 1.0
    if key == "max_balance_residual":
        return doc["initial_energy"]
    return None


def float_mismatch(got, want, scale):
    if math.isnan(want):
        return not math.isnan(got)
    if scale is not None:
        return abs(got - want) > RESIDUAL_ATOL * scale
    return abs(got - want) > GOLDEN_RTOL * abs(want)


def compare_json(got, want, where, doc, key=None):
    """The paths at which two JSON values differ beyond the golden bounds."""
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [bad for k in want for bad in compare_json(got[k], want[k], f"{where}.{k}", doc, k)]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [bad for i, (g, w) in enumerate(zip(got, want))
                for bad in compare_json(g, w, f"{where}[{i}]", doc, key)]
    if isinstance(want, float) and isinstance(got, float):
        return [f"{where}: {got!r} != {want!r}"] if float_mismatch(got, want, residual_scale(key, doc)) else []
    return [] if (type(got), got) == (type(want), want) else [f"{where}: {got!r} != {want!r}"]


def compare_csv(got_text, want_text, name):
    got, want = got_text.splitlines(), want_text.splitlines()
    if got[0] != want[0] or len(got) != len(want):
        return [f"{name}: header or row count differs"]
    header = want[0].split(",")
    bad = []
    for row, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), start=1):
        for col, g, w in zip(header, g_line.split(","), w_line.split(",")):
            if col in INTEGER_COLUMNS:
                mismatch = g != w
            else:
                mismatch = float_mismatch(float(g), float(w), residual_scale(col, None))
            if mismatch:
                bad.append(f"{name} row {row} {col}: {g} != {w}")
    return bad


@pytest.fixture(scope="module", params=SIZES, ids=[f"n{n}" for n in SIZES])
def run(request, tmp_path_factory):
    n = request.param
    return n, run_all(n, tmp_path_factory.mktemp(f"golden-n{n}"))


def test_mesh_matches_golden_hash(run):
    n, out = run
    assert hashlib.sha256((out / "mesh.txt").read_bytes()).hexdigest() == GOLDEN_MESH_SHA256[f"n{n}"]


def reject_constant(name):
    raise ValueError(f"{name} is not a JSON value")


def test_json_artifacts_are_strict(run):
    n, out = run
    for path in sorted(out.glob("*.json")):
        try:
            json.loads(path.read_text(), parse_constant=reject_constant)
        except ValueError as exc:
            pytest.fail(f"{path.name}: {exc}")


def test_artifacts_match_goldens(run):
    n, out = run
    golden = GOLDEN / f"n{n}"
    bad = compare_csv(energy_sample((out / "energy.csv").read_text()),
                      (golden / "energy.csv").read_text(), "energy.csv")
    for name in FULL_ARTIFACTS:
        got, want = (out / name).read_text(), (golden / name).read_text()
        if name.endswith(".csv"):
            bad += compare_csv(got, want, name)
        else:
            want_doc = json.loads(want)
            bad += compare_json(json.loads(got), want_doc, name, want_doc)
    assert not bad, f"{len(bad)} fields off the goldens, first: {bad[:5]}"


@pytest.fixture(scope="module")
def refine(tmp_path_factory):
    return run_refine(tmp_path_factory.mktemp("golden-refine"))


def test_refine_artifacts_match_goldens_byte_for_byte(refine):
    assert hashlib.sha256((refine / "mesh.txt").read_bytes()).hexdigest() == GOLDEN_MESH_SHA256["n32"]
    assert (refine / "probe.json").read_bytes() == (GOLDEN / "refine" / "probe.json").read_bytes()
