"""Tests for IDNA label/domain conversion."""

import pytest

from repro.idn.idna_codec import (
    ACE_PREFIX,
    IDNAError,
    decode_domain,
    encode_domain,
    is_ace_label,
    to_ascii_label,
    to_unicode_label,
    validate_ulabel,
)


def test_ace_prefix_detection():
    assert is_ace_label("xn--80ak6aa92e")
    assert is_ace_label("XN--80AK6AA92E")
    assert not is_ace_label("google")
    assert ACE_PREFIX == "xn--"


def test_to_ascii_label_unicode():
    assert to_ascii_label("阿里巴巴") == "xn--tsta8290bfzd"
    assert to_ascii_label("facébook") == "xn--facbook-dya"
    assert to_ascii_label("Google") == "google"
    assert to_ascii_label("bücher") == "xn--bcher-kva"


def test_to_ascii_label_already_encoded_is_canonicalised():
    assert to_ascii_label("XN--FACBOOK-DYA") == "xn--facbook-dya"


def test_to_ascii_label_normalisation_can_produce_ascii():
    # ß case-folds to ss, yielding a plain ASCII label (no ACE prefix).
    assert to_ascii_label("straße") == "strasse"


def test_to_unicode_label():
    assert to_unicode_label("xn--tsta8290bfzd") == "阿里巴巴"
    assert to_unicode_label("google") == "google"
    with pytest.raises(IDNAError):
        to_unicode_label("xn--")                    # empty payload
    with pytest.raises(IDNAError):
        to_unicode_label("xn--google-")             # decodes to pure ASCII
    with pytest.raises(IDNAError):
        to_unicode_label("xn--a-ecp!")              # invalid punycode digit


def test_validate_ulabel_rejects_disallowed_codepoints():
    assert validate_ulabel("пример") == "пример"
    with pytest.raises(IDNAError):
        validate_ulabel("ex ample")                 # space
    with pytest.raises(IDNAError):
        validate_ulabel("exämple™")                 # trademark sign
    with pytest.raises(IDNAError):
        validate_ulabel("")
    # Contextual code points are allowed only when requested.
    with pytest.raises(IDNAError):
        validate_ulabel("a‍b", allow_contextual=False)
    assert validate_ulabel("a‍b", allow_contextual=True)


def test_hyphen_rules():
    with pytest.raises(IDNAError):
        to_ascii_label("-leading")
    with pytest.raises(IDNAError):
        to_ascii_label("trailing-")
    with pytest.raises(IDNAError):
        to_ascii_label("ab--cd")                    # hyphens in positions 3-4
    assert to_ascii_label("foo-bar") == "foo-bar"


def test_label_length_limit():
    with pytest.raises(IDNAError):
        to_ascii_label("a" * 64)
    assert to_ascii_label("a" * 63) == "a" * 63


def test_encode_decode_domain():
    assert encode_domain("facébook.com") == "xn--facbook-dya.com"
    assert decode_domain("xn--facbook-dya.com") == "facébook.com"
    assert encode_domain("пример.испытание".replace("испытание", "com")) == "xn--e1afmkfd.com"
    assert encode_domain("GOOGLE.COM.") == "google.com"


def test_domain_accepts_ideographic_dots():
    assert encode_domain("例え。com") == encode_domain("例え.com")


def test_empty_domain_rejected():
    with pytest.raises(IDNAError):
        encode_domain("")
    with pytest.raises(IDNAError):
        encode_domain("...")


def test_domain_total_length_limit():
    long_domain = ".".join(["a" * 60] * 5)
    with pytest.raises(IDNAError):
        encode_domain(long_domain)


# -- robustness: oversized A-labels, length-preserving fold --------------------


def test_to_unicode_label_rejects_oversized_ace_labels():
    # A real A-label never exceeds 63 octets; a crafted multi-kilobyte
    # payload used to reach the quadratic Punycode decoder.
    with pytest.raises(IDNAError, match="63 octets"):
        to_unicode_label("xn--" + "a" * 500_000)


def test_to_unicode_label_accepts_mixed_case_ace():
    assert to_unicode_label("XN--TSTA8290BFZD") == "阿里巴巴"
    assert to_unicode_label("xn--BCHER-kva") == "bücher"


def test_to_unicode_label_is_length_preserving_for_unicode_input():
    from repro.idn.idna_codec import fold_label

    # U+0130 "İ" lowers to two characters under str.lower(); the non-ACE
    # path must keep the label's length so position-indexed consumers
    # (matcher substitutions, warning annotations) stay aligned.
    label = "İstanbul"
    folded = to_unicode_label(label)
    assert len(folded) == len(label)
    assert folded == fold_label(label) == "İstanbul".replace("Stanbul", "stanbul")
    assert folded[1:] == "stanbul"
    assert folded[0] == "İ"                      # kept unfolded, not expanded
    assert to_unicode_label("GOOGLE") == "google"   # plain folding still applies


def test_fold_label_exported_from_idn_layer():
    from repro.detection.algorithm import fold_label as detection_fold
    from repro.idn.idna_codec import fold_label

    assert detection_fold is fold_label
    assert fold_label("ẞ") == "ß"                # single-char lowercase is fine
    assert fold_label("ß") == "ß"                # and ß itself never expands
    assert len(fold_label("İX")) == 2


@pytest.mark.parametrize("label", ["xn--a b-kva", "xn--bcher!-kva", "XN--BCHER!-KVA", "xn--bcher-kva*"])
def test_ace_labels_get_the_ldh_check(label):
    # Every other ASCII label is LDH-checked; an A-label used to skip the
    # check and parse with a space or "!" carried into its Unicode form.
    from repro.idn.domain import DomainName

    with pytest.raises(IDNAError, match="non-LDH"):
        DomainName(f"{label}.com")
    with pytest.raises(IDNAError, match="non-LDH"):
        to_ascii_label(label)
    with pytest.raises(IDNAError, match="non-LDH"):
        to_unicode_label(label)
