"""Mutated systems: a fresh system whose named blocks replace the assembled ones.

`SystemMatrices` builds each block and every piece derived from it on first
read, and an assigned attribute shadows the cached one. So blocks assigned
before anything is read reach every reader: the kinematic split and (M, A),
the Dirichlet map, the monitors and the time stepper.
"""

from functools import cached_property

import scipy.sparse as sp

from mlfsi.assembly import SystemMatrices, build_system


def mutant(mesh, **blocks):
    """The system of ``mesh`` with each keyword block (``K_f=...``) in place."""
    sys = build_system(mesh)
    derived = ("kinematic", "M", "A", "dirichlet_map")
    assert not any(name in vars(sys) for name in derived), "a derived piece is already cached"
    for name, block in blocks.items():
        assert isinstance(vars(SystemMatrices).get(name), cached_property), f"{name} is no block"
        setattr(sys, name, block)
    return sys


def cut_coupling(block, n_i):
    """A solid block in [interface, interior] order with its two
    interface–interior blocks zeroed."""
    return sp.block_diag((block[:n_i, :n_i], block[n_i:, n_i:]), format="csr")
