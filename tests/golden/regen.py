"""Write the golden artifacts that `tests/test_golden.py` compares against.

    PYTHONPATH=src python tests/golden/regen.py

For each size in SIZES it runs `mlfsi all` with the default config at that
`geometry.n` and keeps, in `tests/golden/n<size>/`, the files of
FULL_ARTIFACTS whole and the header plus every ENERGY_STRIDE-th data row of
`energy.csv`. This script is the only writer of those files. Run it only for
a change that moves the artifacts on purpose, and record with that change
why, and the per-column max relative difference against the old goldens.
"""

import sys
import tempfile
from pathlib import Path

from mlfsi.cli import main

GOLDEN = Path(__file__).resolve().parent
SIZES = (4, 8)
FULL_ARTIFACTS = ("sweep.csv", "growth.json", "decay.json", "probe.json")
ENERGY_STRIDE = 60


def run_all(n, outdir):
    """`mlfsi all` with the default config at geometry.n = n, into ``outdir``."""
    outdir = Path(outdir)
    cfg = outdir / "run.cfg"
    cfg.write_text(f"geometry.n = {n}\n")
    code = main(["all", "--config", str(cfg), "--outdir", str(outdir / "out")])
    if code:
        raise RuntimeError(f"mlfsi all at n={n} exited with {code}")
    return outdir / "out"


def energy_sample(text):
    """The header and every ENERGY_STRIDE-th data row of an energy.csv text."""
    header, *rows = text.splitlines()
    return "\n".join([header, *rows[::ENERGY_STRIDE]]) + "\n"


def regen():
    for n in SIZES:
        target = GOLDEN / f"n{n}"
        target.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            out = run_all(n, tmp)
            for name in FULL_ARTIFACTS:
                (target / name).write_bytes((out / name).read_bytes())
            (target / "energy.csv").write_text(energy_sample((out / "energy.csv").read_text()))
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    regen()
