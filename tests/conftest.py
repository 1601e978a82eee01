import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cyclewall.autgroup import AutElement, identity_local_aut
from cyclewall.localgroups import cyclic_group
from cyclewall.words import Presentation

from oracles import s3_table_group


# the classes ``davis`` defines: the ball, its table and X', and no cell type
DAVIS_CLASSES = {"ComplexBall", "BallTable", "Subdivision"}


def classes_defined_in(module) -> set[str]:
    """The names of the classes ``module`` defines itself."""
    return {name for name, x in vars(module).items()
            if isinstance(x, type) and x.__module__ == module.__name__}


def inner_aut(g):
    """Conjugation by g: the automorphism with inner part g and the
    identity local part."""
    return AutElement(g, identity_local_aut(g.presentation))


def presentation_c5_z2():
    return Presentation(tuple(cyclic_group(2) for _ in range(5)))


def presentation_c5_z3():
    return Presentation(tuple(cyclic_group(3) for _ in range(5)))


def presentation_c5_mixed():
    return Presentation((cyclic_group(2), cyclic_group(3), cyclic_group(2),
                         cyclic_group(3), cyclic_group(2)))


def presentation_c5_s3():
    s3 = s3_table_group()
    return Presentation((cyclic_group(2), cyclic_group(3), s3,
                         cyclic_group(2), cyclic_group(3)))


def presentation_c6_z2():
    return Presentation(tuple(cyclic_group(2) for _ in range(6)))


def presentation_c6_mixed():
    s3 = s3_table_group()
    return Presentation((cyclic_group(2), cyclic_group(3), s3,
                         cyclic_group(2), cyclic_group(3), cyclic_group(2)))


@pytest.fixture
def c5_z2():
    return presentation_c5_z2()


@pytest.fixture
def c5_z3():
    return presentation_c5_z3()


@pytest.fixture
def c5_mixed():
    return presentation_c5_mixed()


@pytest.fixture
def c5_s3():
    return presentation_c5_s3()


@pytest.fixture
def c6_z2():
    return presentation_c6_z2()


@pytest.fixture
def c6_mixed():
    return presentation_c6_mixed()
