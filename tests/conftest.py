"""Shared fixtures for the test suite.

Expensive artefacts (SimChar builds, the synthetic population, the full
measurement study) are built once per session and shared; tests that need
to mutate state build their own copies.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.detection.shamfinder import ShamFinder
from repro.fonts.synthetic import SyntheticFont
from repro.homoglyph.confusables import load_confusables
from repro.homoglyph.simchar import SimCharBuilder
from repro.measurement.domainlists import ZoneConfig, generate_population
from repro.measurement.study import MeasurementStudy

#: Small block set used by the fast SimChar fixture (keeps the pairwise scan
#: in the tens of milliseconds while covering the interesting scripts).
FAST_BLOCKS = (
    "Basic Latin",
    "Latin-1 Supplement",
    "Latin Extended-A",
    "IPA Extensions",
    "Greek and Coptic",
    "Cyrillic",
    "Armenian",
    "Combining Diacritical Marks",
)


def pytest_configure(config):
    """Honour ``SHAMFINDER_TEST_START_METHOD`` for the whole session.

    CI runs a dedicated job with this set to ``spawn`` so every pool the
    suite creates (scan, serve, SimChar shards) bootstraps its workers the
    way macOS/Windows would, instead of only ever exercising Linux fork.
    """
    method = os.environ.get("SHAMFINDER_TEST_START_METHOD")
    if method:
        multiprocessing.set_start_method(method, force=True)


@pytest.fixture(scope="session")
def font():
    """The deterministic synthetic font."""
    return SyntheticFont()


@pytest.fixture(scope="session")
def fast_builder(font):
    """A SimChar builder over a small repertoire (fast)."""
    return SimCharBuilder(font, repertoire_blocks=FAST_BLOCKS, limit_per_block=300)


@pytest.fixture(scope="session")
def simchar_result(fast_builder):
    """A built SimChar result over the fast repertoire."""
    return fast_builder.build()


@pytest.fixture(scope="session")
def simchar_db(simchar_result):
    """The SimChar database of the fast build."""
    return simchar_result.database


@pytest.fixture(scope="session")
def uc_table():
    """The embedded UC confusables table."""
    return load_confusables()


@pytest.fixture(scope="session")
def uc_db(uc_table):
    """UC as a homoglyph database (all characters)."""
    return uc_table.to_database()


@pytest.fixture(scope="session")
def uc_idna_db(uc_db):
    """UC restricted to IDNA-permitted characters."""
    return uc_db.restricted_to_idna(name="UC∩IDNA")


@pytest.fixture(scope="session")
def union_db(simchar_db, uc_idna_db):
    """UC ∪ SimChar — the database ShamFinder uses."""
    return simchar_db.union(uc_idna_db, name="UC∪SimChar")


@pytest.fixture(scope="session")
def finder(union_db, uc_idna_db, simchar_db):
    """A ShamFinder over the session databases."""
    return ShamFinder(union_db, uc_database=uc_idna_db, simchar_database=simchar_db)


@pytest.fixture(scope="session")
def population():
    """A small synthetic .com population."""
    return generate_population(ZoneConfig.small())


@pytest.fixture(scope="session")
def study(population, finder):
    """A measurement study wired over the small population."""
    return MeasurementStudy(population, finder)


@pytest.fixture(scope="session")
def study_results(study):
    """The full study results (runs the whole pipeline once per session)."""
    return study.run()


@pytest.fixture(scope="session")
def detect_per_item():
    """``detect_prepared`` run on each candidate alone, counts summed.

    A batch of one never reaches the batch kernel, so this is the scalar
    oracle the batch front-end is compared against
    (``test_batchfold.py`` pins that small batches skip the kernel).
    """
    def run(finder, candidates, prepared):
        detections, idn_count, skipped = [], 0, 0
        for candidate in candidates:
            found, count, dropped = finder.detect_prepared([candidate], prepared)
            detections.extend(found)
            idn_count += count
            skipped += dropped
        return detections, idn_count, skipped
    return run
