"""Write the golden artifacts that `tests/test_golden.py` compares against.

    PYTHONPATH=src python tests/golden/regen.py
    PYTHONPATH=src python tests/golden/regen.py --outdir DIR

Without ``--outdir`` it rewrites the goldens. For each size in SIZES it runs
`mlfsi all` with the default config at that `geometry.n` and keeps, in
`tests/golden/n<size>/`, the files of FULL_ARTIFACTS whole and the header
plus every ENERGY_STRIDE-th data row of `energy.csv`. It then runs
`mlfsi mesh` and `mlfsi probe` on REFINE_CONFIG and keeps `probe.json` in
`tests/golden/refine/` and the sha256 of `mesh.txt` as "n32" in
`mesh_sha256.json`. This script is the only writer of those files. Run it
only for a change that moves the artifacts on purpose, and record with that
change why, and the per-column max relative difference against the old
goldens.

With ``--outdir DIR`` it writes every artifact whole into DIR and leaves the
goldens alone: the `mlfsi all` files at each size in `DIR/n<size>/`, and the
refine `mesh.txt` and `probe.json` in `DIR/refine/`. The byte-identity check
of a refactor is this command on each of two trees, with one BLAS thread
(OPENBLAS_NUM_THREADS=1), then `diff -r` of the two DIRs.
"""

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

from mlfsi.cli import main

GOLDEN = Path(__file__).resolve().parent
SIZES = (4, 8)
FULL_ARTIFACTS = ("sweep.csv", "growth.json", "decay.json", "probe.json")
ENERGY_STRIDE = 60
# The manufactured refinement study up to n=32, the largest level the goldens pin.
REFINE_CONFIG = """\
geometry.n = 32
probe.manufactured = true
probe.refinements = 8 16 24 32
probe.beta = 2
"""


def run_cli(commands, config_text, outdir):
    """Each of ``commands`` through `mlfsi` on ``config_text``, into ``outdir``/out."""
    outdir = Path(outdir)
    cfg = outdir / "run.cfg"
    cfg.write_text(config_text)
    for command in commands:
        code = main([command, "--config", str(cfg), "--outdir", str(outdir / "out")])
        if code:
            raise RuntimeError(f"mlfsi {command} on {config_text!r} exited with {code}")
    return outdir / "out"


def run_all(n, outdir):
    """`mlfsi all` with the default config at geometry.n = n, into ``outdir``."""
    return run_cli(("all",), f"geometry.n = {n}\n", outdir)


def run_refine(outdir):
    """`mlfsi mesh` and `mlfsi probe` on REFINE_CONFIG, into ``outdir``."""
    return run_cli(("mesh", "probe"), REFINE_CONFIG, outdir)


def energy_sample(text):
    """The header and every ENERGY_STRIDE-th data row of an energy.csv text."""
    header, *rows = text.splitlines()
    return "\n".join([header, *rows[::ENERGY_STRIDE]]) + "\n"


def regen_sizes():
    for n in SIZES:
        target = GOLDEN / f"n{n}"
        target.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            out = run_all(n, tmp)
            for name in FULL_ARTIFACTS:
                (target / name).write_bytes((out / name).read_bytes())
            (target / "energy.csv").write_text(energy_sample((out / "energy.csv").read_text()))
        print(f"wrote {target}", file=sys.stderr)


def regen_refine():
    target = GOLDEN / "refine"
    target.mkdir(exist_ok=True)
    hashes = GOLDEN / "mesh_sha256.json"
    with tempfile.TemporaryDirectory() as tmp:
        out = run_refine(tmp)
        (target / "probe.json").write_bytes((out / "probe.json").read_bytes())
        digests = json.loads(hashes.read_text())
        digests["n32"] = hashlib.sha256((out / "mesh.txt").read_bytes()).hexdigest()
    hashes.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {target} and the n32 entry of {hashes}", file=sys.stderr)


def write_full(outdir):
    """Every artifact whole under ``outdir``; the goldens are not touched."""
    outdir = Path(outdir)
    for name, run in [*((f"n{n}", partial(run_all, n)) for n in SIZES), ("refine", run_refine)]:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run(tmp), outdir / name)
        print(f"wrote {outdir / name}", file=sys.stderr)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--outdir", help="write every artifact whole here, not the goldens")
    args = parser.parse_args()
    if args.outdir:
        write_full(args.outdir)
    else:
        regen_sizes()
        regen_refine()
