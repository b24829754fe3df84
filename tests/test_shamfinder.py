"""Tests for the ShamFinder framework (Steps 1-3 and reverting)."""

import pytest

from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import SOURCE_SIMCHAR, SOURCE_UC, HomoglyphDatabase
from repro.idn.domain import DomainName, IDNAError


def test_extract_idns_filters_and_tolerates_junk():
    domains = [
        "google.com",
        "xn--facbook-dya.com",
        "xn--tsta8290bfzd.com",
        "mail.example.com",
        "xn--invalid-!!.com",          # undecodable punycode — skipped
        DomainName("xn--80ak6aa92e.com"),
    ]
    idns = ShamFinder.extract_idns(domains)
    ascii_forms = {idn.ascii for idn in idns}
    assert ascii_forms == {
        "xn--facbook-dya.com", "xn--tsta8290bfzd.com", "xn--80ak6aa92e.com",
    }


def test_detect_basic_homographs(finder):
    candidates = ["xn--facbook-dya.com", "xn--ggle-55da.com", "xn--tsta8290bfzd.com"]
    reference = ["facebook.com", "google.com", "amazon.com"]
    report = finder.detect(candidates, reference)
    pairs = {(d.idn, d.reference) for d in report}
    assert ("xn--facbook-dya.com", "facebook.com") in pairs
    assert ("xn--ggle-55da.com", "google.com") in pairs
    assert all(d.reference != "amazon.com" for d in report)


def test_detection_respects_tld(finder):
    # A homograph under a different TLD does not match a .com reference.
    report = finder.detect(["xn--ggle-55da.net"], ["google.com"])
    assert len(report) == 0


def test_detection_source_attribution(finder):
    report = finder.detect(["xn--facbook-dya.com"], ["facebook.com"])
    detection = list(report)[0]
    # The é→e substitution is a SimChar discovery (not in UC), the paper's
    # headline example of SimChar's added coverage.
    assert SOURCE_SIMCHAR in detection.sources
    assert detection.substitutions[0].reference_char == "e"
    assert detection.idn_unicode == "facébook.com"


def test_detect_with_timing(finder):
    report, timing = finder.detect_with_timing(
        ["xn--ggle-55da.com"], ["google.com", "amazon.com"]
    )
    assert len(report) == 1
    assert timing.reference_count == 2
    assert timing.idn_count == 1
    assert timing.total_seconds >= 0
    assert timing.seconds_per_reference == pytest.approx(timing.total_seconds / 2)


def test_detect_with_specific_database(finder, uc_idna_db):
    candidates = ["xn--facbook-dya.com", "xn--ggle-55da.com"]
    reference = ["facebook.com", "google.com"]
    uc_only = finder.detect_with_database(candidates, reference, uc_idna_db)
    union = finder.detect(candidates, reference)
    # UC alone misses the accented-e homograph; the union finds both.
    assert len(uc_only.detected_idns()) < len(union.detected_idns())


def test_revert_to_original(finder):
    assert finder.revert_to_original("xn--ggle-55da.com") == "google.com"
    assert finder.revert_to_original(DomainName("xn--facbook-dya.com")) == "facebook.com"
    assert finder.revert_to_original("example.com") is None


def test_databases_accessor(finder):
    databases = finder.databases()
    assert "union" in databases
    assert SOURCE_UC in databases and SOURCE_SIMCHAR in databases


def test_from_databases_requires_one():
    with pytest.raises(ValueError):
        ShamFinder.from_databases()
    db = HomoglyphDatabase()
    db.add_pair("o", "о", source=SOURCE_UC)
    finder = ShamFinder.from_databases(db)
    assert finder.detect(["xn--ggle-55da.com"], ["google.com"])


def test_invalid_references_are_skipped(finder):
    report = finder.detect(["xn--ggle-55da.com"], ["google.com", "bad domain!"])
    assert len(report) == 1


def test_skipped_idns_are_counted(finder):
    # A candidate whose registrable label fails to decode is not a domain
    # name: construction (which decodes every A-label) rejects it, so it is
    # skipped AND surfaces in the timing's skipped_count.
    with pytest.raises(IDNAError):
        DomainName("xn--0.com")

    report, timing = finder.detect_with_timing(
        ["xn--ggle-55da.com", "xn--0.com", "bad domain!"],
        ["google.com"],
    )
    assert len(report) == 1
    assert timing.idn_count == 1            # neither junk string made a DomainName
    assert timing.skipped_count == 2        # one bad string + one undecodable label


def test_undecodable_reference_does_not_crash_detection(finder):
    report, timing = finder.detect_with_timing(
        ["xn--ggle-55da.com"], ["google.com", "xn--0.com"]
    )
    assert len(report) == 1
    assert timing.reference_count == 1      # the undecodable reference is dropped


def test_skipped_count_zero_on_clean_input(finder):
    _report, timing = finder.detect_with_timing(["xn--ggle-55da.com"], ["google.com"])
    assert timing.skipped_count == 0
