import numpy as np
import pytest

from mlfsi.assembly import build_system
from mlfsi.geometry import MeshConfig, build_mesh

# Smallest valid mesh at n = 2: the default boxes do not align on a 2-cells-
# per-unit grid, so the canonical tiny geometry scales the boxes up instead.
TINY_CONFIG = MeshConfig(
    outer_lo=(0.0, 0.0, 0.0), outer_hi=(1.5, 1.5, 1.5),
    inner_lo=(0.5, 0.5, 0.5), inner_hi=(1.0, 1.0, 1.0), n=2,
)
# Same boxes refined once: every DOF class (fluid interior, interface, solid
# interior) is nonempty, still small enough for dense oracles.
RICH_CONFIG = MeshConfig(
    outer_lo=(0.0, 0.0, 0.0), outer_hi=(1.5, 1.5, 1.5),
    inner_lo=(0.5, 0.5, 0.5), inner_hi=(1.0, 1.0, 1.0), n=4,
)
# Off the origin, unequal sides per axis, the cube off-centre.
NON_CUBIC_CONFIG = MeshConfig(
    outer_lo=(0.0, -0.5, 0.25), outer_hi=(2.0, 1.0, 1.5),
    inner_lo=(0.5, 0.0, 0.5), inner_hi=(1.25, 0.75, 1.0), n=4,
)


def level_systems(ns):
    """Systems of the default geometry at each n, each built when it is reached."""
    return (build_system(build_mesh(MeshConfig(n=n))) for n in ns)


@pytest.fixture(scope="session")
def tiny_mesh():
    return build_mesh(TINY_CONFIG)


@pytest.fixture(scope="session")
def tiny_sys(tiny_mesh):
    return build_system(tiny_mesh)


@pytest.fixture(scope="session")
def rich_mesh():
    return build_mesh(RICH_CONFIG)


@pytest.fixture(scope="session")
def rich_sys(rich_mesh):
    return build_system(rich_mesh)


@pytest.fixture(scope="session")
def default_mesh():
    return build_mesh(MeshConfig())


@pytest.fixture(scope="session")
def default_sys(default_mesh):
    return build_system(default_mesh)


@pytest.fixture(scope="session")
def n8_sys():
    return build_system(build_mesh(MeshConfig(n=8)))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
