"""Tests for the DomainName model."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.idn import punycode
from repro.idn.domain import DomainName
from repro.idn.idna_codec import IDNAError, decode_domain, to_unicode_label


def test_ascii_domain_basics():
    name = DomainName("Google.COM")
    assert name.ascii == "google.com"
    assert name.unicode == "google.com"
    assert name.labels == ("google", "com")
    assert name.tld == "com"
    assert name.registrable_label == "google"
    assert name.sld_and_tld == "google.com"
    assert not name.is_idn
    assert str(name) == "google.com"


def test_idn_domain_both_faces():
    name = DomainName("阿里巴巴.com")
    assert name.ascii == "xn--tsta8290bfzd.com"
    assert name.unicode == "阿里巴巴.com"
    assert name.is_idn
    assert name.has_idn_registrable_label
    assert name.registrable_unicode == "阿里巴巴"
    assert "Han" in name.scripts


def test_parse_accepts_either_form():
    from_unicode = DomainName.parse("facébook.com")
    from_ascii = DomainName.parse("xn--facbook-dya.com")
    assert from_unicode == from_ascii
    assert from_unicode.unicode == "facébook.com"


def test_mixed_script_detection():
    cyrillic_o = DomainName("g" + chr(0x043E) + chr(0x043E) + "gle.com")
    assert cyrillic_o.is_mixed_script
    accented = DomainName("facébook.com")
    assert not accented.is_mixed_script
    ascii_only = DomainName("example.com")
    assert not ascii_only.is_mixed_script
    assert ascii_only.scripts == frozenset({"Latin"})


def test_subdomain_structure():
    name = DomainName("mail.xn--facbook-dya.com")
    assert name.tld == "com"
    assert name.registrable_label == "xn--facbook-dya"
    assert name.has_idn_registrable_label
    assert name.sld_and_tld == "xn--facbook-dya.com"


def test_single_label_domain():
    name = DomainName("localhost")
    assert name.registrable_label == "localhost"
    assert name.sld_and_tld == "localhost"


def test_invalid_domains_raise():
    with pytest.raises(IDNAError):
        DomainName("exa mple.com")
    with pytest.raises(IDNAError):
        DomainName("")
    with pytest.raises(IDNAError):
        DomainName("xn--zzzzzzzz!.com")


def test_equality_and_hash():
    assert DomainName("GOOGLE.com") == DomainName("google.com")
    assert len({DomainName("google.com"), DomainName("google.com")}) == 1


def test_repr_shows_unicode_for_idns():
    assert "facébook" in repr(DomainName("facébook.com"))
    assert "google.com" in repr(DomainName("google.com"))


# -- both forms at construction, each A-label decoded once ----------------------

_UNICODE_TEXT = st.text(alphabet="abcxyz019-äöüßéİоаеріοα阿里巴", min_size=1, max_size=8)


@st.composite
def domain_texts(draw):
    """Domain-shaped strings: LDH, A-label (any case), U-label and junk labels,
    joined by any of the dots DomainName splits on."""
    labels = draw(st.lists(st.one_of(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ0123456789-_", min_size=1, max_size=10),
        st.builds(lambda text, upper: ("XN--" if upper else "xn--") + punycode.encode(text),
                  _UNICODE_TEXT, st.booleans()),
        _UNICODE_TEXT,
        st.text(max_size=6),
    ), min_size=1, max_size=4))
    dots = draw(st.lists(st.sampled_from([".", "。", "．", "｡"]), min_size=len(labels), max_size=len(labels)))
    text = "".join(label + dot for label, dot in zip(labels, dots))
    return text if draw(st.booleans()) else text[:-1]


def _parse(text):
    try:
        return DomainName(text)
    except (IDNAError, ValueError):
        return None


@settings(max_examples=300, deadline=None)
@given(domain_texts())
def test_stored_unicode_form_equals_decoding_the_ascii_form(text):
    name = _parse(text)
    assume(name is not None)
    assert name.unicode == decode_domain(name.ascii)
    assert name.registrable_unicode == to_unicode_label(name.registrable_label)
    assert len(name.unicode_labels) == len(name.labels)


@settings(max_examples=300, deadline=None)
@given(st.one_of(domain_texts(), st.text(max_size=20)))
def test_accepted_names_always_have_a_registrable_unicode_label(text):
    # ShamFinder.join_batch relies on this: a parsed name's label never
    # fails to decode, so parsing is the only step that can reject an input.
    name = _parse(text)
    if name is not None:
        assert isinstance(name.registrable_unicode, str)


def _count_decodes(monkeypatch):
    calls = []
    real_decode = punycode.decode

    def counting_decode(text, **kwargs):
        calls.append(text)
        return real_decode(text, **kwargs)

    monkeypatch.setattr(punycode, "decode", counting_decode)
    return calls


@pytest.mark.parametrize("text, payloads", [
    ("mail.XN--GGLE-0NDA.xn--p1ai", ["ggle-0nda", "p1ai"]),
    ("xn--80ak6aa92e.com", ["80ak6aa92e"]),
    ("gööle.com", []),                          # a U-label: encoded, never decoded
    ("google.com", []),                         # ASCII labels never decode
])
def test_each_ace_label_is_decoded_exactly_once(monkeypatch, text, payloads):
    calls = _count_decodes(monkeypatch)
    name = DomainName(text)
    reads = [(name.ascii, name.unicode, name.unicode_labels, name.registrable_unicode,
              name.scripts, name.is_mixed_script, repr(name)) for _ in range(2)]
    assert reads[0] == reads[1]
    assert calls == payloads


def test_ascii_name_shares_one_string_for_both_forms():
    name = DomainName("Mail.Google.com")
    assert name.unicode is name.ascii


def test_stored_unicode_form_survives_copy_and_pickle():
    name = DomainName("mail.xn--ggle-0nda.com")
    for clone in (copy.copy(name), copy.deepcopy(name), pickle.loads(pickle.dumps(name)),
                  dataclasses.replace(name)):
        assert clone == name and hash(clone) == hash(name)
        assert (clone.ascii, clone.unicode) == (name.ascii, name.unicode)
