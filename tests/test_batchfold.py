"""Tests for the vectorized batch fold/skeleton kernel (detection/batchfold.py).

The kernel's contract is *soundness*, not completeness: wherever it claims
a certain miss, the scalar path must agree there is no match; everywhere
else it must defer to the scalar path.  The property suite drives
arbitrary labels — including the fold edge cases (U+0130, ß, Σ/σ/ς),
invisible characters, combining marks, and out-of-table code points that
force the scalar fallback — through both paths and checks agreement, and
the domain-level fast-parse is pinned against its executable regex oracle
:data:`~repro.detection.batchfold.FAST_DOMAIN_RE`.
"""

from __future__ import annotations

import pickle
import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.detection import batchfold
from repro.detection.algorithm import fold_label
from repro.detection.batchfold import (
    FAST_DOMAIN_RE,
    MAX_FAST_DOMAIN,
    MIN_IDN_DECODE_BATCH,
    MIN_KERNEL_BATCH,
    BatchFoldKernel,
    FoldTable,
    fold_table_for,
    kernel_for,
)
from repro.detection.service import OnlineDetector, QueryVerdict, _fast_miss_verdict
from repro.detection.shamfinder import ShamFinder
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.homoglyph.invisible import default_invisible_table
from repro.idn.domain import DomainName, unicode_from_decoded
from repro.idn.idna_codec import IDNAError, to_ascii_label
from repro.idn.punycode import encode

REFERENCES = ["google.com", "amazon.com", "paypal.com", "secure-login.com"]


@pytest.fixture(scope="module")
def small_finder():
    db = HomoglyphDatabase(name="batchfold-test")
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    db.add_pair("e", "е", source=SOURCE_UC)
    db.add_pair("i", "і", source=SOURCE_UC)
    return ShamFinder(db)


@pytest.fixture(scope="module")
def invisible_finder():
    db = HomoglyphDatabase(name="batchfold-invisible-test")
    db.add_pair("o", "о", source=SOURCE_UC)
    db.add_pair("a", "а", source=SOURCE_UC)
    return ShamFinder(db, invisible_table=default_invisible_table(),
                      source_config="uc,invisible.v1")


@pytest.fixture(scope="module")
def prepared(small_finder):
    return small_finder.prepare_references(REFERENCES)


@pytest.fixture(scope="module")
def kernel(small_finder, prepared):
    return kernel_for(small_finder.matcher, prepared)


# Alphabet biased towards the interesting cases: reference letters, their
# Cyrillic twins, fold edge cases (İ lowers to i̇ — two code points — so the
# table must keep it as-is; ß and Σ/σ/ς; U+0130 itself), invisibles, a
# combining mark, and plain junk.
_LABEL_ALPHABET = st.sampled_from(list(
    "gogleamazonpy"           # reference letters
    "оаеі"                    # their homoglyph twins
    "İßΣσς"   # İ ß Σ σ ς
    "​‍⁠"      # ZWSP ZWJ WJ (invisible table entries)
    "́̈"            # combining marks
    "-._~!xyz0189"
))
labels = st.text(alphabet=_LABEL_ALPHABET, min_size=0, max_size=24)


@settings(max_examples=400, deadline=None)
@given(st.lists(labels, min_size=0, max_size=12))
@example(["gооgle", "google", "Σ", "", "İ", "goo​gle"])
def test_batch_skeletons_equal_scalar_pipeline(kernel, small_finder, batch):
    skeletons, decidable = kernel.skeletons(batch)
    classes = small_finder.matcher.classes
    for label, skeleton, ok in zip(batch, skeletons, decidable):
        if ok:
            assert skeleton == classes.skeletonize(fold_label(label))
        else:
            assert "Σ" in label or any(0xD800 <= ord(c) < 0xE000 for c in label)


@settings(max_examples=400, deadline=None)
@given(st.lists(labels, min_size=0, max_size=12))
@example(["gооgle", "google", "amazon", "аmazon", "Σcorp"])
@example(["goo​gle", "gógle", "benign"])
def test_certain_miss_is_sound_against_skeleton_index(kernel, small_finder, prepared, batch):
    """miss=True must imply the scalar skeleton join finds nothing."""
    miss = kernel.certain_miss_mask(batch)
    assert miss.shape == (len(batch),)
    for label, certain in zip(batch, miss):
        if certain:
            assert list(small_finder.matcher.match_with_skeleton_index(
                label, prepared.index)) == []


def test_sigma_always_falls_back(kernel):
    miss = kernel.certain_miss_mask(["Σ", "aΣb", "σok"])
    # Σ is out-of-table (undecidable) → never a certain miss; σ folds fine.
    assert not miss[0] and not miss[1]


def test_lone_surrogate_falls_back(kernel):
    label = "ab" + "\ud800" + "cd"
    miss = kernel.certain_miss_mask([label, "zzzz"])
    assert not miss[0]
    assert miss[1]


@settings(max_examples=300, deadline=None)
@given(st.lists(labels, min_size=0, max_size=10))
@example(["goo​gle", "g‍l", "benign", "gógle"])
def test_invisible_risk_suppresses_certain_miss(invisible_finder, batch):
    prepared = invisible_finder.prepare_references(REFERENCES)
    kernel = kernel_for(invisible_finder.matcher, prepared)
    miss = kernel.certain_miss_mask(
        batch, invisible_table=invisible_finder.invisible_table)
    for label, certain in zip(batch, miss):
        if certain:
            folded = fold_label(label)
            assert invisible_finder.invisible_table.findings(folded) == ()
            assert list(invisible_finder.matcher.match_with_skeleton_index(
                label, prepared.index)) == []


# -- domain-level fast parse vs. the regex oracle -----------------------------


@contextmanager
def _decoding_every_idn():
    """Run the batch Punycode decoder however few IDN rows a batch has."""
    with mock.patch.object(batchfold, "MIN_IDN_DECODE_BATCH", 1):
        yield


def _expected_domain_miss(kernel, text, invisible_table=None):
    """The oracle: ``(certain miss?, decoded label of an eligible IDN)``.

    Eligibility is FAST_DOMAIN_RE plus the length cap; an eligible IDN
    must also parse, and an eligible name is a miss exactly when its
    registrable U-label is a certain miss at label level.  Every eligible
    IDN that parses carries its U-label, miss or bucket hit.
    """
    if len(text) > MAX_FAST_DOMAIN or FAST_DOMAIN_RE.fullmatch(text) is None:
        return False, None
    registrable = text.rsplit(".", 2)[-2]
    label = None
    if registrable.startswith("xn--"):
        try:
            registrable = label = DomainName(text).registrable_unicode
        except IDNAError:
            return False, None
    miss = bool(kernel.certain_miss_mask([registrable], invisible_table=invisible_table)[0])
    return miss, label


def _labels_by_row(decoded):
    """A :class:`DecodedLabels` as ``{row: U-label}``, checking that it
    has a label exactly at its rows."""
    rows = decoded.rows.tolist()
    assert rows == sorted(set(rows))
    labels = {row: decoded.get(row) for row in rows}
    assert None not in labels.values()
    return labels


def _assert_domain_pass_matches_oracle(kernel, matcher, prepared, batch, invisible_table=None):
    with _decoding_every_idn():
        got, decoded = kernel.domain_misses(batch, invisible_table=invisible_table)
    assert got.shape == (len(batch),)
    expected_labels = {}
    for position, text in enumerate(batch):
        miss, label = _expected_domain_miss(kernel, text, invisible_table)
        assert got[position] == miss, text
        if label is not None:
            expected_labels[position] = label
        else:
            assert decoded.get(position) is None
    assert _labels_by_row(decoded) == expected_labels
    for position, label in expected_labels.items():
        # What a decoded IDN is taken to be without parsing it.
        name = DomainName(batch[position])
        assert name.ascii == batch[position] and name.has_idn_registrable_label
        assert name.registrable_unicode == label
        if got[position]:
            assert list(matcher.match_with_skeleton_index(label, prepared.index)) == []


_DOMAIN_ALPHABET = st.sampled_from(list("gole.amzn-_оа​ΣAZ%/\n09x"))
domains = st.text(alphabet=_DOMAIN_ALPHABET, min_size=0, max_size=40)

#: Names whose registrable label is an A-label or looks like one: valid
#: encodings (homoglyph twins of the references, which bucket-hit, and
#: other labels, which miss), arbitrary payloads (bad digits, truncated
#: or overflowing deltas, empty extended parts), under subdomains, plain
#: and ``xn--`` TLDs, some upper-cased.
_ALABELS = st.one_of(
    st.text(alphabet=st.sampled_from(list("gogleamazonоаеіüß日​-")), min_size=1, max_size=20)
    .filter(lambda label: not label.isascii()).map(lambda label: "xn--" + encode(label)),
    st.text(alphabet="abcz09_-", min_size=0, max_size=61).map(lambda payload: "xn--" + payload),
)
idn_domains = st.builds(
    lambda subdomain, alabel, tld, upper: (
        (subdomain + alabel + "." + tld).upper() if upper else subdomain + alabel + "." + tld),
    st.sampled_from(["", "www.", "a.b.", "xn--p1ai.", "-x."]),
    _ALABELS,
    st.sampled_from(["com", "net", "xn--p1ai", "a--b", "C"]),
    st.booleans(),
)
_IDN_EXAMPLES = [
    "xn--bcher-kva.de", "www.xn--bcher-kva.de", "xn--bcher-kva.xn--p1ai", "XN--BCHER-KVA.de",
    "xn--Bcher-kva.de", "xn--bcher-kva.com.", "xn--abc-.com", "xn--.com", "xn--w.com",
    "xn--jv09t.com", "xn--2u0c.com", "xn--99999999.com", "xn--bcher-kva_.com",
    "xn--" + "a" * 55 + "-8yf.com", "xn--" + "a" * 56 + "-t2f.com",
    "xn--bcher-kva.xn--bcher-kva.com", to_ascii_label("gооgle") + ".com",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(domains | idn_domains, min_size=0, max_size=12))
@example(["google.com", "gооgle.com", "xn--ggle-55da.com", "UPPER.com"])
@example(["", ".", "..", "a.", ".a", "a..b", "-a.com", "a-.com", "ab--cd.com"])
@example(["a\nb.com", "\n", "x" * 64 + ".com", ("a" * 49 + ".") * 5 + "com"])
@example(["www.go_gle.com", "sub.dom.google.com", "a.b"])
@example(_IDN_EXAMPLES)
def test_domain_certain_miss_matches_oracle(kernel, small_finder, prepared, batch):
    """Eligibility == FAST_DOMAIN_RE fullmatch + length cap (and, for an
    IDN, a payload that decodes); eligible domains get exactly the
    registrable U-label's certain-miss verdict, and an IDN miss carries
    the label the scalar parse decodes."""
    _assert_domain_pass_matches_oracle(kernel, small_finder.matcher, prepared, batch)


def test_idn_decode_waits_for_a_full_batch(kernel):
    """Below MIN_IDN_DECODE_BATCH eligible IDN rows, IDNs are left to the
    scalar parse; from there on they are decoded.  ``domain_certain_miss``
    is the mask of ``domain_misses`` either way."""
    plain = [f"benign{i}.com" for i in range(4)]
    idns = ["xn--" + encode(f"bénin{i}") + ".com" for i in range(MIN_IDN_DECODE_BATCH)]
    # The last name has an A-label in the registrable position but is not
    # eligible (uppercase TLD), so only MIN_IDN_DECODE_BATCH - 1 rows are.
    few = plain + idns[:-1] + [idns[-1].replace(".com", ".COM")]
    mask, decoded = kernel.domain_misses(few)
    assert mask[:4].all() and not mask[4:].any() and _labels_by_row(decoded) == {}
    assert np.array_equal(kernel.domain_certain_miss(few), mask)
    full = plain + idns
    mask, decoded = kernel.domain_misses(full)
    assert mask.all()
    assert _labels_by_row(decoded) == {4 + i: f"bénin{i}" for i in range(MIN_IDN_DECODE_BATCH)}
    assert np.array_equal(kernel.domain_certain_miss(full), mask)


# Labels drawn so the hyphen rules (edges, positions 3-4), underscores and
# "xn--" prefixes come up often; the filter keeps exactly the oracle's domains.
_FAST_ALPHABET = st.sampled_from(list("abnxz09_-"))
fast_domains = st.lists(
    st.text(alphabet=_FAST_ALPHABET, min_size=1, max_size=63), min_size=2, max_size=6,
).map(".".join).filter(
    lambda text: len(text) <= MAX_FAST_DOMAIN and FAST_DOMAIN_RE.fullmatch(text))


@settings(max_examples=500, deadline=None)
@given(fast_domains | st.builds("{}.{}".format, _ALABELS, st.sampled_from(["com", "de"])))
@example("a.b")
@example("_dmarc.mail.example.com")
@example("ab-cd.x_-y.com")
@example("x" * 63 + "." + "y" * 63 + "." + "z" * 63 + "." + "w" * 61)
@example("www.xn--bcher-kva.de")
def test_fast_parse_contract(text):
    """What a fast miss is taken to be without parsing: the front-end
    counts it as a parsed name whose ASCII form is the input — a non-IDN
    whose Unicode form is the input too, or an IDN (when its payload
    decodes) whose Unicode form swaps in the decoded registrable label."""
    assume(FAST_DOMAIN_RE.fullmatch(text))
    labels = text.split(".")
    if labels[-2].startswith("xn--"):
        try:
            name = DomainName(text)
        except IDNAError:
            return
        assert name.ascii == text and name.is_idn and name.has_idn_registrable_label
        assert name.unicode == ".".join([*labels[:-2], name.registrable_unicode, labels[-1]])
        assert name.tld == labels[-1]
        return
    name = DomainName(text)
    assert name.ascii == name.unicode == text
    assert name.registrable_unicode == labels[-2]
    assert name.tld == labels[-1]
    assert not name.is_idn and not name.has_idn_registrable_label


@settings(max_examples=300, deadline=None)
@given(st.lists(domains | idn_domains, min_size=0, max_size=10))
@example(["goo​gle.com", "google.com"])
@example(["xn--" + encode("goo​gle") + ".com", "xn--" + encode("gógle") + ".com"])
def test_domain_certain_miss_with_invisible_table(invisible_finder, batch):
    prepared = invisible_finder.prepare_references(REFERENCES)
    kernel = kernel_for(invisible_finder.matcher, prepared)
    _assert_domain_pass_matches_oracle(kernel, invisible_finder.matcher, prepared, batch,
                                       invisible_finder.invisible_table)


# -- end-to-end equivalence ---------------------------------------------------

def _mixed_corpus(count: int = 40) -> list[str]:
    corpus = []
    hits = ["gооgle", "аmazon", "pаypаl", "secure-logіn"]
    for i in range(count):
        if i % 10 == 0:
            corpus.append(to_ascii_label(hits[(i // 10) % len(hits)]) + ".com")
        elif i % 7 == 0:
            corpus.append(f"UPPER{i}.com")          # scalar fallback (not LDH)
        elif i % 5 == 0:
            corpus.append(f"www.site{i}.co.uk")     # multi-label
        else:
            corpus.append(f"benign{i:02d}.com")
    return corpus


def test_detect_prepared_batch_equals_scalar(small_finder, prepared, detect_per_item):
    corpus = _mixed_corpus()
    batch, batch_count, batch_skipped = small_finder.detect_prepared(corpus, prepared)
    scalar, scalar_count, scalar_skipped = detect_per_item(small_finder, corpus, prepared)
    assert (batch_count, batch_skipped) == (scalar_count, scalar_skipped)
    assert [d.as_dict() for d in batch] == [d.as_dict() for d in scalar]
    assert batch      # the corpus must actually contain detections


def test_query_many_batch_equals_scalar_loop(small_finder):
    detector = OnlineDetector.from_references(small_finder, REFERENCES)
    corpus = _mixed_corpus()
    batch = detector.query_many(corpus)
    scalar = [detector.query(domain) for domain in corpus]
    assert [v.as_dict() for v in batch] == [v.as_dict() for v in scalar]
    assert any(v.detections for v in batch)
    # The stats counter must advance once per query on both paths.
    assert detector.stats()["queries"] == 2 * len(corpus)


def _idn_corpus() -> list[str]:
    """Enough eligible IDNs for the batch decoder, among the names that
    must still go scalar: invalid payloads, uppercase, ``xn--`` TLDs and
    subdomains, homograph twins (bucket hits) and plain ASCII."""
    corpus = []
    for i in range(2 * MIN_IDN_DECODE_BATCH):
        label = [f"bénin{i}", f"ü{i}mazon", f"bоx{i}"][i % 3]   # "bоx" reverts to "box"
        kind = i % 11
        if kind == 0:
            corpus.append(to_ascii_label(["gооgle", "аmazon", "pаypаl"][i % 3]) + ".com")
        elif kind == 1:
            corpus.append(f"www.xn--{encode(label)}.com")     # subdomained IDN
        elif kind == 2:
            corpus.append(f"xn--{encode(label)}.xn--p1ai")    # xn-- TLD
        elif kind == 3:
            corpus.append(f"XN--{encode(label).upper()}.com")  # uppercase
        elif kind == 4:
            corpus.append(["xn--abc-.com", "xn--jv09t.com", "xn--w.net", "xn--ab_c.com"][i % 4])
        elif kind == 5:
            corpus.append(f"site{i}.com")
        else:
            corpus.append(f"xn--{encode(label)}.{'com' if i % 2 else 'net'}")
    return corpus


def test_idn_batch_equals_scalar(small_finder, prepared, detect_per_item):
    """Above the decode threshold, IDN fast misses keep every verdict and
    count identical to the per-item scalar path, with and without the
    inlined revert target."""
    corpus = _idn_corpus()
    eligible = [d for d in corpus
                if FAST_DOMAIN_RE.fullmatch(d) and d.rsplit(".", 2)[-2].startswith("xn--")]
    assert len(eligible) >= MIN_IDN_DECODE_BATCH
    batch = small_finder.join_batch(
        corpus, prepared, lambda label, _name: small_finder.join_label(label, prepared))
    idn_misses = [row for row in batch.decoded.rows.tolist() if batch.fast[row]]
    assert len(idn_misses) >= MIN_IDN_DECODE_BATCH // 2

    batch, batch_count, batch_skipped = small_finder.detect_prepared(corpus, prepared)
    scalar, scalar_count, scalar_skipped = detect_per_item(small_finder, corpus, prepared)
    assert (batch_count, batch_skipped) == (scalar_count, scalar_skipped)
    assert [d.as_dict() for d in batch] == [d.as_dict() for d in scalar]
    assert batch and batch_skipped

    for include_revert in (False, True):
        detector = OnlineDetector.from_references(
            small_finder, REFERENCES, include_revert=include_revert)
        verdicts = detector.query_many(corpus)
        assert [v.as_dict() for v in verdicts] == [detector.query(d).as_dict() for d in corpus]
        assert verdicts == [detector.query(d) for d in corpus]
    assert any(v.revert for v in verdicts if v.is_idn and not v.detections)


def test_query_many_small_batch_skips_kernel(small_finder, prepared, monkeypatch):
    """Below MIN_KERNEL_BATCH the front-end is the plain scalar loop, which
    is what makes per-item ``detect_prepared`` a real scalar oracle."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("kernel_for called for a small batch")

    monkeypatch.setattr("repro.detection.shamfinder.kernel_for", refuse)
    few = _mixed_corpus()[:MIN_KERNEL_BATCH - 1]
    detections, idn_count, skipped = small_finder.detect_prepared(few, prepared)
    assert detections and (idn_count, skipped) == (len(few), 0)
    detector = OnlineDetector.from_references(small_finder, REFERENCES)
    assert [v.as_dict() for v in detector.query_many(few)] == [
        detector.query(d).as_dict() for d in few]
    assert detector.query(few[0]).is_homograph


def test_mixed_batch_outcomes_in_input_order(small_finder, prepared):
    """One outcome per input: fast misses, junk and joined labels
    interleave in input order, and the join runs only for labels neither
    kernel pass rules out."""
    hit = to_ascii_label("gооgle") + ".com"
    batch = ["benign.com", "..", hit] + [f"SITE{i}.com" for i in range(MIN_KERNEL_BATCH)]
    joined = []

    def join(label, _name):
        joined.append(label)
        return small_finder.join_label(label, prepared)

    outcome = small_finder.join_batch(batch, prepared, join)
    assert outcome.fast.tolist() == [True] + [False] * (len(batch) - 1)
    assert outcome.decoded.get(0) is None
    assert len(outcome.joined) == len(batch) - 1
    name, label, matches, error = outcome.joined[0]
    assert name is None and label is None and matches == () and error is not None
    name, label, matches, error = outcome.joined[1]
    assert error is None and matches and joined == [label]
    assert [(label, matches) for _, label, matches, _ in outcome.joined[2:]] == [
        (f"site{i}", ()) for i in range(MIN_KERNEL_BATCH)]


# -- decoded bucket hits --------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["", "www.", "a.b-c.", "_dmarc.x9."]), _ALABELS,
       st.sampled_from(["com", "de", "x_y"]))
@example("", "xn--bcher-kva", "de")
@example("www.", to_ascii_label("gооgle"), "com")
@example("", "xn--" + "a" * 55 + "-8yf", "com")
@example("", "xn--ab_c", "com")
@example("", "xn--99999999", "com")
def test_name_from_decoded_forms_equals_a_full_parse(kernel, subdomain, alabel, tld):
    """A fast-parseable name whose registrable A-label the batch decodes
    has the forms a full parse gives: the text is its ASCII form, the
    U-label its registrable label, and ``unicode_from_decoded`` gives its
    Unicode form; a payload the batch does not decode (flagged,
    undecodable) gets no label, so the front-end parses it."""
    text = f"{subdomain}{alabel}.{tld}"
    assume(FAST_DOMAIN_RE.fullmatch(text) and len(text) <= MAX_FAST_DOMAIN)
    with _decoding_every_idn():
        _mask, decoded = kernel.domain_misses([text])
    label = decoded.get(0)
    try:
        parsed = DomainName(text)
    except IDNAError:
        assert label is None
        return
    assert label is not None
    assert parsed.ascii == text and parsed.tld == text.rpartition(".")[2]
    assert parsed.registrable_unicode == label and parsed.has_idn_registrable_label
    assert parsed.unicode == unicode_from_decoded(text, label)


def test_only_decoded_bucket_hits_skip_the_parse(small_finder, prepared, monkeypatch):
    """A bucket hit whose A-label the batch decoded keeps its input as its
    row's name and goes straight to the join; a payload that is flagged or
    undecodable, an ineligible name and a plain ASCII hit are parsed, and
    only the parsed names reach the label-level pass."""
    from repro.idn import domain as domain_module

    hits = [to_ascii_label(label) + ".com" for label in ("gооgle", "аmazon", "pаypаl")]
    hits.append("www." + hits[0])
    undecoded = ["xn--ab_c.com", "xn--99999999.com", "xn--jv09t.com"]
    parsed_names = ["google.com", "XN--BCHER-KVA.de", "xn--bcher-kva.xn--p1ai", "..",
                    *(f"UPPER{i}.com" for i in range(MIN_KERNEL_BATCH))]
    misses = [f"xn--{encode(f'bénin{i}')}.com" for i in range(MIN_KERNEL_BATCH)]
    batch = misses[:4] + hits[:2] + undecoded + parsed_names + hits[2:] + misses[4:]

    parsed, checked = [], []
    domain_forms = domain_module.domain_forms
    certain_miss_mask = BatchFoldKernel.certain_miss_mask

    def recording_domain_forms(text):
        parsed.append(text)
        return domain_forms(text)

    def recording_mask(self, labels, **kwargs):
        checked.extend(labels)
        return certain_miss_mask(self, labels, **kwargs)

    monkeypatch.setattr(domain_module, "domain_forms", recording_domain_forms)
    monkeypatch.setattr(BatchFoldKernel, "certain_miss_mask", recording_mask)
    joined = []

    def join(label, _name):
        joined.append(label)
        return small_finder.join_label(label, prepared)

    with _decoding_every_idn():
        outcome = small_finder.join_batch(batch, prepared, join)
    assert parsed == undecoded + parsed_names
    assert outcome.fast.tolist() == [text in misses for text in batch]
    positions = np.flatnonzero(~outcome.fast).tolist()
    assert positions == [i for i, text in enumerate(batch) if text not in misses]
    by_position = dict(zip(positions, outcome.joined))
    assert [by_position[batch.index(text)][0] for text in hits] == hits
    assert all(isinstance(by_position[batch.index(text)][0], str) for text in hits)
    hit_labels = [by_position[batch.index(text)][1] for text in hits]
    assert all(by_position[batch.index(text)][2] for text in hits)
    # The label-level pass sees exactly the names parsed here.
    assert checked == [DomainName(text).registrable_unicode
                       for text in parsed_names if text != ".."]
    assert set(hit_labels) <= set(joined)


def _threshold_corpus(eligible: int) -> list[str]:
    """A shuffled mixed batch holding exactly *eligible* fast-parseable
    IDNs: decodable misses, decodable bucket hits and payloads the batch
    decoder flags, among ineligible IDNs, plain names and junk."""
    hits = [to_ascii_label(label) + ".com" for label in ("gооgle", "аmazon", "pаypаl")]
    hits.append("www." + hits[0])
    flagged = ["xn--ab_c.com", "xn--99999999.com", "xn--jv09t.com", "xn--w.net"]
    fill = eligible - len(hits) - len(flagged)
    idns = [f"xn--{encode(f'bénin{i}')}.{'com' if i % 2 else 'net'}" for i in range(fill)]
    others = ["benign.com", "..", "UPPER.com", "XN--BCHER-KVA.de", "xn--bcher-kva.xn--p1ai",
              hits[0].upper(), "www.site.co.uk", "google.com", "xn--.com", "xn--abc-.com"]
    corpus = idns + hits + flagged + others
    random.Random(eligible).shuffle(corpus)
    assert sum(bool(FAST_DOMAIN_RE.fullmatch(text)) and text.rsplit(".", 2)[-2].startswith("xn--")
               for text in corpus) == eligible
    return corpus


def _outcome_rows(finder, prepared, batch):
    """:meth:`ShamFinder.join_batch` over *batch*, one ``(ascii, unicode,
    label, matches, error)`` per input; a fast miss is spelled out as the
    name it is taken to be."""
    outcome = finder.join_batch(batch, prepared,
                                lambda label, _name: finder.join_label(label, prepared))
    joined = iter(outcome.joined)
    rows = []
    for position, text in enumerate(batch):
        if outcome.fast[position]:
            label = outcome.decoded.get(position)
            if label is None:
                rows.append((text, text, text.rsplit(".", 2)[-2], (), None))
            else:
                rows.append((text, unicode_from_decoded(text, label), label, (), None))
            continue
        name, label, matches, error = next(joined)
        if isinstance(name, str):
            rows.append((name, unicode_from_decoded(name, label), label, matches, None))
            continue
        rows.append((name and name.ascii, name and name.unicode, label, matches,
                     error and str(error)))
    assert next(joined, None) is None
    return rows, outcome


@pytest.mark.parametrize("eligible", [MIN_IDN_DECODE_BATCH - 1, MIN_IDN_DECODE_BATCH,
                                      MIN_IDN_DECODE_BATCH + 1])
def test_join_batch_equals_scalar_loop_around_the_decode_threshold(
        small_finder, prepared, eligible):
    corpus = _threshold_corpus(eligible)
    rows, outcome = _outcome_rows(small_finder, prepared, corpus)
    assert bool(outcome.decoded.rows.size) == (eligible >= MIN_IDN_DECODE_BATCH)
    scalar = [_outcome_rows(small_finder, prepared, [text])[0][0] for text in corpus]
    assert rows == scalar
    assert any(matches for _, _, _, matches, _ in rows)
    assert any(error for *_, error in rows)


# -- the trivial-verdict constructor ------------------------------------------

def test_fast_miss_verdict_is_indistinguishable():
    text = "benign.com"
    fast = _fast_miss_verdict(text)
    slow = QueryVerdict(domain=text, ascii=text, unicode=text)
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert fast.as_dict() == slow.as_dict()
    assert fast.detections == () and fast.error is None and not fast.is_idn
    assert pickle.loads(pickle.dumps(fast)) == slow
    with pytest.raises(Exception):
        fast.domain = "mutate"      # still frozen


# -- fold table build + persistence -------------------------------------------

def test_fold_table_roundtrip(tmp_path, small_finder):
    classes = small_finder.matcher.classes
    digest = small_finder.database.content_digest()
    table = FoldTable.build(classes, database_digest=digest)
    path = tmp_path / "fold.bin"
    table.save(path)
    loaded = FoldTable.load(path, database_digest=digest)
    assert loaded is not None
    for attribute in ("keys", "values", "fold_keys", "fold_values", "unsafe"):
        assert np.array_equal(getattr(loaded, attribute), getattr(table, attribute))


def test_fold_table_load_rejects_damage(tmp_path, small_finder):
    classes = small_finder.matcher.classes
    digest = small_finder.database.content_digest()
    table = FoldTable.build(classes, database_digest=digest)
    path = tmp_path / "fold.bin"
    table.save(path)

    assert FoldTable.load(path, database_digest="other") is None

    raw = path.read_bytes()
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(raw[:-8])
    assert FoldTable.load(truncated, database_digest=digest) is None

    flipped = tmp_path / "flipped.bin"
    flipped.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
    assert FoldTable.load(flipped, database_digest=digest) is None

    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"not a fold table\n1234")
    assert FoldTable.load(garbage, database_digest=digest) is None

    assert FoldTable.load(tmp_path / "missing.bin", database_digest=digest) is None


def test_fold_table_sidecar_used_by_fold_table_for(tmp_path, small_finder):
    classes = small_finder.matcher.classes
    digest = small_finder.database.content_digest()
    # Clear the instance memo so the call actually consults the cache dir.
    if hasattr(classes, "_fold_table"):
        del classes._fold_table
    first = fold_table_for(classes, database_digest=digest, cache_dir=tmp_path)
    sidecars = list(tmp_path.glob("foldtable-*.bin"))
    assert len(sidecars) == 1
    # Drop the in-memory memo: the second call must come from the sidecar.
    del classes._fold_table
    second = fold_table_for(classes, database_digest=digest, cache_dir=tmp_path)
    assert np.array_equal(first.keys, second.keys)
    assert np.array_equal(first.values, second.values)


@pytest.mark.parametrize("codes", [
    np.arange(0x80), np.arange(0x80, 0x10000), np.array([0x41, 0x3A3, 0xD800, 0x1F600, 0x10FFFF]),
], ids=["ascii", "bmp", "astral"])
def test_translate_equals_the_sparse_tables(small_finder, codes):
    """Both lookups :meth:`FoldTable.translate` picks (dense below
    U+10000, sparse above) map and flag exactly what the sorted arrays
    say."""
    table = fold_table_for(
        small_finder.matcher.classes,
        database_digest=small_finder.database.content_digest())
    codes = codes.astype(np.uint32)
    mapped, unsafe = table.translate(codes)
    assert np.array_equal(mapped, batchfold._sparse_apply(table.keys, table.values, codes))
    expected = batchfold._membership(table.unsafe, codes)
    assert np.array_equal(unsafe if unsafe is not None else np.zeros(codes.size, bool), expected)


def test_a_pickled_fold_table_leaves_its_dense_lookup_behind(small_finder):
    """The memoized table rides in every pickled finder (spawn and
    forkserver workers): folding a BMP batch must not grow that pickle,
    and the unpickled table rebuilds the lookup to the same result."""
    table = fold_table_for(
        small_finder.matcher.classes,
        database_digest=small_finder.database.content_digest())
    finder_size, table_size = len(pickle.dumps(small_finder)), len(pickle.dumps(table))
    codes = np.arange(0x80, 0x800, dtype=np.uint32)
    mapped, unsafe = table.translate(codes)
    assert table._dense_map is not None
    assert len(pickle.dumps(small_finder)) == finder_size
    assert len(pickle.dumps(table)) == table_size
    clone = pickle.loads(pickle.dumps(table))
    assert clone._dense_map is None and clone.database_digest == table.database_digest
    clone_mapped, clone_unsafe = clone.translate(codes)
    assert np.array_equal(clone_mapped, mapped) and np.array_equal(clone_unsafe, unsafe)


def test_kernel_matches_manual_construction(small_finder, prepared, kernel):
    table = fold_table_for(
        small_finder.matcher.classes,
        database_digest=small_finder.database.content_digest())
    manual = BatchFoldKernel(table, prepared.index.skeletons())
    assert manual.bucket_count == kernel.bucket_count
    assert np.array_equal(manual.key_hashes, kernel.key_hashes)
