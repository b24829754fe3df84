"""Every fast path that reads domain text, held to :class:`DomainName`.

Several paths classify a domain's text without parsing it: the batch
kernel's domain pass (:meth:`BatchFoldKernel.domain_misses`), the
reference list's plain-name reader
(:func:`~repro.idn.idna_codec.plain_registrable_labels`), the Step II test
(:func:`~repro.idn.domain.is_idn_candidate`), the scan's chunk-level
Step II (``_step_ii``, ``_dense_pick``, ``_plain_line_count``) and the
zone reader's owner normalisation (``read_delegations``).  One strategy of
adversarial domain text feeds them all, and for every input each path
either declines or gives exactly what ``DomainName`` gives: the same
registrable label, the same IDN-ness, a fast miss only where the scalar
join finds nothing.  No path may raise.  End to end, a ``--jobs 1`` scan's
sink over the generated lines equals the scalar oracle's, name by name.

A name that does not parse is a Step II candidate exactly when its
registrable label, as :func:`~repro.idn.idna_codec.split_labels` splits
it, starts with ``xn--`` (in any case); the matcher then counts it in
``skipped_count``.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.detection import batchfold, stream
from repro.detection.batchfold import kernel_for
from repro.detection.shamfinder import ShamFinder
from repro.detection.stream import StreamingScanner, is_idn_candidate
from repro.dns.zonediff import read_delegations
from repro.homoglyph.database import SOURCE_UC, HomoglyphDatabase
from repro.idn import punycode
from repro.idn.domain import DomainName, unicode_from_decoded
from repro.idn.idna_codec import IDNAError, fold_label, plain_registrable_labels, split_labels

REFERENCES = ["google.com", "amazon.com", "paypal.com", "secure-login.com", "bücher.de"]


@pytest.fixture(scope="module")
def finder():
    db = HomoglyphDatabase(name="fast-path-agreement")
    for ascii_char, twin in (("o", "о"), ("a", "а"), ("e", "е"), ("l", "1"), ("o", "0")):
        db.add_pair(ascii_char, twin, source=SOURCE_UC)
    return ShamFinder(db)


@pytest.fixture(scope="module")
def prepared(finder):
    return finder.prepare_references(REFERENCES)


@pytest.fixture(scope="module")
def kernel(finder, prepared):
    return kernel_for(finder.matcher, prepared)


# -- the one strategy -----------------------------------------------------------

#: Unicode text for labels: homoglyph twins of the references, a non-BMP
#: letter, and code points whose ``lower()`` changes length (İ) or
#: depends on context (Σ).
_UNICODE = "gоoglеаmzpyü𝐠İΣσẞ日"
_TWINS = ["gооgle", "gоogle", "аmаzon", "pаypаl", "büchеr", "secure-lоgin"]
_DOTS = [".", "。", "．", "｡"]

#: Labels a zone spells: the references' own, their ASCII twins, and
#: LDH runs with ``_`` and ``-`` anywhere (at the edges and in positions
#: 3-4 too), of up to 64 octets.
_WORDS = st.sampled_from(["google", "goog1e", "g00gle", "amazon", "paypal", "secure-login",
                          "www", "_dmarc", "a" * 63])
_LDH_LABELS = st.one_of(
    _WORDS,
    st.text(alphabet="abgolexn01_-", min_size=1, max_size=8),
    st.sampled_from(["-a", "a-", "ab--cd", "a" * 64]),
)
#: A-labels with valid payloads (twins of the references, which hit their
#: buckets, and other Unicode text) and with arbitrary ones, of up to 64
#: octets.
_TWIN_ALABELS = st.sampled_from(_TWINS).map(punycode.encode).map("xn--".__add__)
_ALABELS = st.one_of(
    _TWIN_ALABELS,
    st.text(alphabet=_UNICODE, min_size=1, max_size=6).filter(
        lambda text: not text.isascii()).map(punycode.encode).map("xn--".__add__),
    st.text(alphabet="abz09_-", max_size=10).map("xn--".__add__),
    st.sampled_from(["xn--" + "a" * 55 + "-8yf", "xn--" + "a" * 56 + "-t2f"]),
)
#: Unicode-spelled labels and junk holding ``#`` or other non-LDH ASCII.
_OTHER_LABELS = st.one_of(
    st.sampled_from(_TWINS),
    st.text(alphabet=_UNICODE + "-", min_size=1, max_size=6),
    st.sampled_from(["go#gle", "goo gle", "a%b", "a!b"]),
)
_LABELS = st.one_of(_LDH_LABELS, _ALABELS, _OTHER_LABELS)
_TLD_NAMES = ["com", "de", "net", "xn--p1ai", "a--b"]
_PAD = st.sampled_from(["", "", "", " ", "\t", "　"])
#: Registrable label + TLD of the 253- and 254-octet names.
_TAILS = ["google.com", "goog1e.com", "xn--ggle-55da.com", "xn--bcher-kva.de", "xn--a.com"]


def _sized(octets: int, tail: str) -> str:
    """*tail* under subdomain labels of at most 63 octets, *octets* long."""
    pieces = []
    left = octets - len(tail)
    while left > 0:
        take = min(64, left)
        if left - take == 1:
            take -= 1
        pieces.append("a" * (take - 1) + ".")
        left -= take
    return "".join(pieces) + tail


def _cased(draw, text: str) -> str:
    return draw(st.sampled_from([text, text, text, text.title(), text.upper()]))


def _zone_spelled(draw) -> str:
    """A name as a zone or CT log spells it: LDH labels and an LDH or
    ``xn--`` registrable label under a TLD, joined by ``"."``."""
    labels = [*draw(st.lists(_WORDS, max_size=2)),
              draw(st.one_of(_WORDS, _TWIN_ALABELS, _LDH_LABELS, _ALABELS)),
              draw(st.sampled_from(_TLD_NAMES))]
    return _cased(draw, ".".join(labels) + draw(st.sampled_from(["", "", "."])))


def _respelled(draw) -> str:
    """A name as a user or a broken feed might spell it: any labels, each
    in any casing and maybe padded, joined by any of the four dots."""
    labels = [draw(_LABELS)]
    if draw(st.integers(0, 5)):
        labels = [*draw(st.lists(_LABELS, max_size=2)), *labels,
                  draw(st.sampled_from(_TLD_NAMES) | _LABELS)]
    dots = draw(st.lists(st.sampled_from(_DOTS), min_size=len(labels), max_size=len(labels)))
    text = "".join(draw(_PAD) + _cased(draw, label) + dot for label, dot in zip(labels, dots))
    return draw(_PAD) + (text if draw(st.booleans()) else text[:-1]) + draw(_PAD)


@st.composite
def domain_texts(draw):
    """Adversarial domain text: a zone-spelled or a re-spelled name, or one
    of exactly 253 or 254 octets; one in ten behind a ``#``."""
    if draw(st.integers(0, 9)) == 0:
        text = _sized(draw(st.sampled_from([253, 254])), draw(st.sampled_from(_TAILS)))
        return text + draw(st.sampled_from(["", ".", "。"]))
    text = _zone_spelled(draw) if draw(st.booleans()) else _respelled(draw)
    return "#" + text if draw(st.integers(0, 9)) == 0 else text


#: Inputs that once disagreed between paths, or sit on an edge of one.
_EDGES = [
    "xn--gogle-jye.com。", "xn--gogle-jye.com．", "xn--gogle-jye.com｡", "xn--gogle-jye.com.",
    "。", "．．", "｡", ".", "..", "", " ", "xn--", "XN--GOGLE-JYE.com.", "a.。",
    "example.xn--p1ai", "foo.xn--ggle-0nda。com", "bü cher!.de", "ü.xn--zzzz-!!!.com",
    "a" * 63 + ".com", "a" * 64 + ".com", _sized(253, "google.com"), _sized(254, "google.com"),
    "goog1e.com", "gооgle.com", "xn--ggle-55da.com", "XN--GGLE-55DA.COM", "#xn--ggle-55da.com",
    "xn--ggle-55da.com　", "ab--cd.com", "xn--ggle-55da-.com", "Goog1e.com", "GOOG1E.COM",
    "Benign.com", "mail.BENIGN.com", "a-.com", "-a.com", "mail.a-.com", "a.b-",
]


def _parse(text: str) -> DomainName | None:
    try:
        return DomainName(text)
    except ValueError:
        return None


def _is_candidate(text: str) -> bool:
    """Step II's verdict by the contract: a name's own IDN-ness, or for
    text that does not parse, whether its registrable label as
    ``split_labels`` splits it starts with ``xn--``."""
    name = _parse(text)
    if name is not None:
        return name.has_idn_registrable_label
    try:
        labels = split_labels(text)
    except IDNAError:
        return False
    registrable = labels[-2] if len(labels) > 1 else labels[0]
    return registrable.strip().lower().startswith("xn--")


# -- is_idn_candidate -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(domain_texts())
def test_is_idn_candidate_agrees_with_domain_name(text):
    assert is_idn_candidate(text) == _is_candidate(text)


@pytest.mark.parametrize("text", _EDGES)
def test_is_idn_candidate_edges(text):
    assert is_idn_candidate(text) == _is_candidate(text)


def test_a_trailing_ideographic_dot_is_a_root_dot():
    for dot in ("。", "．", "｡"):
        name = DomainName("xn--gogle-jye.com" + dot)
        assert name == DomainName("xn--gogle-jye.com.")
        assert name.registrable_label == "xn--gogle-jye"
        assert is_idn_candidate("xn--gogle-jye.com" + dot)
        assert split_labels("a.com" + dot) == ["a", "com"]


def test_text_without_a_label_is_no_candidate_and_does_not_raise():
    for text in ("。", "．．", "｡", ".", "", " 　 ", "。.．"):
        with pytest.raises(IDNAError):
            split_labels(text)
        assert not is_idn_candidate(text)


# -- the plain-name reader --------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(domain_texts(), max_size=8))
@example(_EDGES)
def test_plain_name_reader_agrees_with_domain_name(texts):
    labels = plain_registrable_labels(texts)
    assert len(labels) == len(texts)
    for text, label in zip(texts, labels):
        if not label:
            continue
        name = DomainName(text)
        assert name.ascii == name.unicode == text
        assert not name.is_idn
        assert fold_label(name.registrable_unicode) == label


# -- the batch kernel's domain pass -------------------------------------------------


@contextmanager
def _decoding_every_idn():
    with mock.patch.object(batchfold, "MIN_IDN_DECODE_BATCH", 1):
        yield


@pytest.mark.parametrize("decode", [False, True])
@settings(max_examples=100, deadline=None)
@given(st.lists(domain_texts(), max_size=10))
@example(_EDGES)
def test_domain_misses_agree_with_the_scalar_join(finder, prepared, kernel, decode, batch):
    if decode:
        with _decoding_every_idn():
            mask, decoded = kernel.domain_misses(batch)
    else:
        mask, decoded = kernel.domain_misses(batch)
    assert mask.shape == (len(batch),)
    for position, text in enumerate(batch):
        label = decoded.get(position)
        if not mask[position] and label is None:
            continue            # declined: the scalar path decides
        name = DomainName(text)
        assert name.ascii == text
        if label is not None:
            assert name.has_idn_registrable_label
            assert name.registrable_unicode == label
            assert name.unicode == unicode_from_decoded(text, label)
        elif mask[position]:
            assert not name.is_idn and name.unicode == text
        if mask[position]:
            # A batch of one runs the scalar join: no detection, no skip.
            assert finder.detect_prepared([text], prepared) == ([], 1, 0)


# -- Step II over a chunk ------------------------------------------------------------


def _step_ii_oracle(lines):
    names = [line.strip() for line in lines]
    domains = [name for name in names if name and not name.startswith("#")]
    return [name for name in domains if _is_candidate(name)], len(domains)


@pytest.mark.parametrize("dense_lines_per_hit", [8, 1 << 30])
@settings(max_examples=100, deadline=None)
@given(st.lists(domain_texts(), min_size=1, max_size=10))
@example(_EDGES)
@example(["xn--ggle-55da.com", "xn--ggle-55da.com."])
@example(["a.xn--ggle-55da.com", "XN--GGLE-55DA.com", "xn--ggle-55da"])
@example(["#mail.xn--ggle-55da.com", "xn--ggle-55da.com", "#.xn--a.com"])
def test_step_ii_agrees_with_domain_name(dense_lines_per_hit, lines):
    text = "\n".join(lines)
    with mock.patch.object(stream, "_DENSE_LINES_PER_HIT", dense_lines_per_hit):
        assert stream._step_ii(text, True) == _step_ii_oracle(lines)
    # The counted-chunk path: only a chunk of bare domains is counted
    # without a split, and only such a chunk reaches the dense pick.
    if not text.isascii() or stream._plain_line_count(text) is None:
        return
    assert stream._plain_line_count(text) == len(lines)
    assert all(line and line == line.strip() and not line.startswith("#") for line in lines)
    picked = stream._dense_pick(text, text.lower())
    assert picked is None or picked == _step_ii_oracle(lines)[0]


# -- the zone reader ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(domain_texts(), min_size=1, max_size=6))
@example(_EDGES)
def test_zone_reader_owners_agree_with_domain_name(tmp_path_factory, texts):
    # A zone line's owner is one whitespace-free token.
    owners = ["".join(text.split()) or "." for text in texts]
    path = tmp_path_factory.mktemp("zone") / "zone.txt"
    path.write_text("".join(f"{owner}\t172800\tIN\tNS\tns1.example.\n" for owner in owners),
                    encoding="utf-8")
    everything = dict(read_delegations(path))
    candidates = dict(read_delegations(path, domain_filter=is_idn_candidate))
    expected = set()
    for owner in owners:
        domain = owner.lower().rstrip(".")
        if "." not in domain:
            assert domain not in everything     # declined: a zone-apex record
            continue
        assert domain in everything
        name = _parse(owner)
        if name is None:
            assert _parse(domain) is None
        else:
            assert _parse(domain) == name
            if owner.isascii():
                assert domain == name.ascii
        if _is_candidate(owner):
            expected.add(domain)
    assert set(candidates) == expected


# -- end to end ---------------------------------------------------------------------------


def _scalar_scan(finder, prepared, lines):
    """Sink text and counters of the scalar oracle: one name at a time,
    Step II by the contract, Step III a batch of one."""
    sink, seen, idns, skipped = [], 0, 0, 0
    for line in lines:
        name = line.strip()
        if not name or name.startswith("#"):
            continue
        seen += 1
        if not _is_candidate(name):
            continue
        detections, idn_count, skip_count = finder.detect_prepared([name], prepared)
        sink += [detection.as_json() + "\n" for detection in detections]
        idns += idn_count
        skipped += skip_count
    return "".join(sink), (seen, idns, skipped, len(sink))


def _scan(finder, prepared, work, lines, jobs, chunk_size):
    source, sink = work / "in.txt", work / "out.jsonl"
    source.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    scanner = StreamingScanner(finder, REFERENCES, prepared=prepared, jobs=jobs,
                               chunk_size=chunk_size)
    stats = scanner.scan_file(source, sink)
    counts = (stats.domains_seen, stats.idn_count, stats.skipped_count, stats.detection_count)
    return sink.read_text(encoding="utf-8"), counts


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(domain_texts(), max_size=24), chunk_size=st.sampled_from([3, 2000]))
@example(lines=_EDGES, chunk_size=2000)
def test_scan_sink_equals_the_scalar_oracle(finder, prepared, tmp_path_factory, lines,
                                            chunk_size):
    work = tmp_path_factory.mktemp("scan")
    with _decoding_every_idn():
        assert _scan(finder, prepared, work, lines, 1, chunk_size) == _scalar_scan(
            finder, prepared, lines)


def test_worker_scan_sink_equals_the_scalar_oracle(finder, prepared, tmp_path):
    lines = _EDGES + [_sized(253, tail) for tail in _TAILS] + [
        prefix + tail + dot for prefix in ("", "www.", "XN--P1AI.") for tail in _TAILS
        for dot in ("", ".", "。")]
    assert _scan(finder, prepared, tmp_path, lines, 2, 7) == _scalar_scan(finder, prepared, lines)
