"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  Expensive
artefacts (the SimChar build, the synthetic population, the full
measurement study) are session-scoped so the individual benches measure
their own stage rather than re-paying setup costs.

The printed output of each bench is the data behind the corresponding
table/figure; EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.detection.shamfinder import ShamFinder
from repro.fonts.synthetic import SyntheticFont
from repro.homoglyph.confusables import load_confusables
from repro.homoglyph.simchar import SimCharBuilder
from repro.measurement.domainlists import ZoneConfig, generate_population
from repro.measurement.study import MeasurementStudy

# The legacy paths some benches race against live as test oracles
# (``tests/oracles``).
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

#: Scale of the benchmark population relative to the paper's 140M-domain zone.
BENCH_SCALE = 0.25


@pytest.fixture(scope="session")
def font():
    """The deterministic synthetic font (Unifont substitute)."""
    return SyntheticFont()


@pytest.fixture(scope="session")
def simchar_builder(font):
    """SimChar builder over the default (laptop-scale) repertoire."""
    return SimCharBuilder(font)


@pytest.fixture(scope="session")
def simchar_result(simchar_builder):
    """A full SimChar build (shared by the Table 1-5 benches)."""
    return simchar_builder.build()


@pytest.fixture(scope="session")
def simchar_db(simchar_result):
    return simchar_result.database


@pytest.fixture(scope="session")
def uc_db():
    return load_confusables().to_database()


@pytest.fixture(scope="session")
def uc_idna_db(uc_db):
    return uc_db.restricted_to_idna(name="UC∩IDNA")


@pytest.fixture(scope="session")
def union_db(simchar_db, uc_idna_db):
    return simchar_db.union(uc_idna_db, name="UC∪SimChar")


@pytest.fixture(scope="session")
def finder(union_db, uc_idna_db, simchar_db):
    return ShamFinder(union_db, uc_database=uc_idna_db, simchar_database=simchar_db)


@pytest.fixture(scope="session")
def population():
    """The benchmark-scale synthetic .com population."""
    return generate_population(ZoneConfig.paper_scaled(scale=BENCH_SCALE))


@pytest.fixture(scope="session")
def study(population, finder):
    return MeasurementStudy(population, finder)


@pytest.fixture(scope="session")
def study_results(study):
    """The full measurement-study results (computed once per session)."""
    return study.run()
