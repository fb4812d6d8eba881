from __future__ import annotations

import pytest

from gspaces import klein_four, symmetric3
from pactop import build, induced_family, mutant_family, validate
from pactop.instances import induced_instances
from references import one_entry_edits


@pytest.fixture(scope="session")
def family():
    """All induced instances with a cyclic group of order <= 4 on <= 3
    points, then those of the Klein four-group on <= 3 points and of S3
    on <= 2 points: non-abelian products catch mistakes in the order of
    a product that commuting elements hide."""
    return (
        induced_family(max_group=4, max_points=3)
        + induced_instances([(klein_four(), (1, 2))], 3)
        + induced_instances([(symmetric3(), (1, 3))], 2)
    )


@pytest.fixture(scope="session")
def s3_family():
    """All induced instances of S3 on <= 3 points: 6-element groups, so
    the identity suite's planes hold 64 group parts, and the row
    reference's subset-sum takes both of its slice branches.  Kept out
    of ``family``: the meagerness oracle is too slow on it."""
    return induced_instances([(symmetric3(), (1, 3))], 3)


@pytest.fixture(scope="session")
def valid_s3_family(s3_family):
    return [pa for pa in s3_family if validate(pa).ok]


@pytest.fixture(scope="session")
def family3():
    """The |G| <= 3 slice used by the exhaustive transform sweeps."""
    return induced_family(max_group=3, max_points=3)


@pytest.fixture(scope="session")
def valid_family(family):
    return [pa for pa in family if validate(pa).ok]


@pytest.fixture(scope="session")
def valid_globs(valid_family):
    """Globalizations of every valid instance, built once."""
    return [(pa, build(pa)) for pa in valid_family]


@pytest.fixture(scope="session")
def changed_family(family, s3_family):
    """Invalid and ill-formed neighbours of the two sweeps: 100 mutants
    for each seed 0-7, then 800 seeded one-entry edits."""
    instances = family + s3_family
    return [
        m for seed in range(8) for _, m in mutant_family(instances, 100, seed=seed)
    ] + one_entry_edits(instances, 800, seed=0)
