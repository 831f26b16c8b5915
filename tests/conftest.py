"""Session-scoped family constructions shared across test modules.

Each family is constructed once per run and shared between modules.
Building all of them takes about a tenth of a second on a 2-vCPU Xeon
(CK_6 is the largest part); tests that need a fresh or corrupted table
build their own.

The property tests run under the "tier1" hypothesis profile: derandomized,
with a fixed number of examples and no deadline, so that every run draws
the same tables.
"""

import pytest

try:
    from hypothesis import settings
except ImportError:          # the property tests skip themselves
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=15,
                              database=None)
    settings.load_profile("tier1")

from confcoalg import families
from confcoalg.poly import Scalar


@pytest.fixture(scope="session")
def vir():
    return families.make_vir()


@pytest.fixture(scope="session")
def cur_sl2():
    return families.make_cur_sl2()


@pytest.fixture(scope="session")
def W():
    return {n: families.make_W(n) for n in range(4)}


@pytest.fixture(scope="session")
def K():
    return {n: families.make_K(n) for n in range(7)}


@pytest.fixture(scope="session")
def S():
    return {n: families.make_S(n) for n in (2, 3)}


@pytest.fixture(scope="session")
def S2b():
    return {
        "0": families.make_S_b(2, Scalar(0)),
        "1": families.make_S_b(2, Scalar(1)),
        "beta": families.make_S_b(2, Scalar(0, 1)),
    }


@pytest.fixture(scope="session")
def Stilde2():
    return families.make_S_tilde(2)


@pytest.fixture(scope="session")
def K4p():
    return families.make_K4prime()


@pytest.fixture(scope="session")
def CK6():
    return families.make_CK6()


@pytest.fixture(scope="session")
def Jn():
    return {n: families.make_Jn(n) for n in (0, 1, 2, 3)}


@pytest.fixture(scope="session")
def JS1():
    return families.make_JS1()


@pytest.fixture(scope="session")
def JCK4():
    return families.make_JCK4()
