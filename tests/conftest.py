from fractions import Fraction

import pytest

from pentachain import assign_geometry, build_chain, load_builtin
from pentachain.chain import certify_chain
from reference import fixed_sphere_geometry


@pytest.fixture(scope="session")
def s3():
    return load_builtin("s3")


@pytest.fixture(scope="session")
def rp3():
    return load_builtin("rp3")


@pytest.fixture(scope="session")
def sphere_geometry():
    return fixed_sphere_geometry()


@pytest.fixture()
def rp3_geometry(rp3):
    return assign_geometry(rp3, seed=42)


@pytest.fixture(scope="session")
def certified_chain():
    """``build_chain`` followed by the full check of the chain property, for
    tests that compute on a chain and must know it is one."""

    def build(tri, g):
        c = build_chain(tri, g)
        certify_chain(c)
        return c

    return build


@pytest.fixture()
def fractions_made(monkeypatch):
    """The list that every Fraction the test constructs is appended to."""
    made = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return made
