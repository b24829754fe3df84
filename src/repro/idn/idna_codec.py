"""IDNA label conversion: U-labels ↔ A-labels.

Registered IDNs appear in zone files as ASCII *A-labels* with the ACE
prefix ``xn--`` (e.g. ``xn--tsta8290bfzd``); users see the Unicode
*U-label* (``阿里巴巴``).  This module converts between the two forms and
validates labels against the IDNA2008 rules the registries enforce:

* code points must be PVALID (or contextual, when allowed);
* labels are NFC-normalised and case-folded;
* A-labels obey the LDH and length rules (63 octets, no leading/trailing
  hyphen, no hyphens in positions 3-4 unless the label is an A-label).

The implementation is intentionally independent of the ``idna`` PyPI
package (not available offline) and of the lenient built-in ``"idna"``
codec.  The fast paths that read names without a parse (batch kernel,
reference prepare, Step II) import their ASCII label rule from here.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Sequence

from ..unicode.idna import DerivedProperty, derived_property
from . import punycode

__all__ = [
    "ACE_PREFIX",
    "LDH_CHARS",
    "MAX_LABEL_OCTETS",
    "MAX_DOMAIN_OCTETS",
    "PLAIN_LABEL",
    "IDNAError",
    "fold_label",
    "is_ace_label",
    "to_ascii_label",
    "to_unicode_label",
    "domain_forms",
    "split_labels",
    "registrable_of",
    "plain_registrable_labels",
    "encode_domain",
    "decode_domain",
    "validate_ulabel",
]

#: ASCII-Compatible-Encoding prefix marking an encoded IDN label.
ACE_PREFIX = "xn--"

#: The longest label and the longest name, in octets of their ASCII form.
MAX_LABEL_OCTETS = 63
MAX_DOMAIN_OCTETS = 253
#: The characters of a lower-cased ASCII label: letters, digits, hyphen
#: and the underscore service labels (``_dmarc``) carry.
LDH_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")

_LDH_CLASS = "[" + re.escape("".join(sorted(LDH_CHARS))) + "]"

#: A *plain* label as a regex: lower-case LDH, 1-63 octets, no hyphen at
#: either end or in positions 3-4 (so no ``xn--`` A-label).  A plain label
#: is its own A-label and U-label.
PLAIN_LABEL = (rf"(?!-)(?!{_LDH_CLASS}{{2}}--)"
               rf"{_LDH_CLASS}{{1,{MAX_LABEL_OCTETS}}}(?<!-)")

#: Matches every line of a newline-joined name list once: group 1 is the
#: registrable label of a plain name (plain labels, at most 253 octets)
#: and empty for any other line.
_PLAIN_NAMES = re.compile(
    rf"^(?:(?=[^\n]{{1,{MAX_DOMAIN_OCTETS}}}$)"
    rf"(?:{PLAIN_LABEL}\.)*?({PLAIN_LABEL})(?:\.{PLAIN_LABEL})?$|[^\n]*)$",
    re.MULTILINE,
)


class IDNAError(ValueError):
    """Raised when a label violates the IDNA2008 rules."""


def is_ace_label(label: str) -> bool:
    """True when *label* carries the ``xn--`` ACE prefix."""
    return label.lower().startswith(ACE_PREFIX)


def fold_label(label: str) -> str:
    """Lowercase *label* without changing its length.

    ``str.lower()`` can change a label's length (U+0130 "İ" lowers to "i"
    plus a combining dot), which breaks every consumer that indexes into
    the original label — length pruning, substitution positions, warning
    annotations.  Characters whose lowercase mapping expands are kept
    as-is, so every index into the folded label is also a valid index into
    the original.
    """
    folded = label.lower()
    if len(folded) == len(label):
        return folded
    return "".join(
        lowered if len(lowered := char.lower()) == 1 else char for char in label
    )


def _check_hyphens(label: str, *, is_alabel: bool) -> None:
    if not label:
        raise IDNAError("empty label")
    if label.startswith("-") or label.endswith("-"):
        raise IDNAError(f"label may not start or end with a hyphen: {label!r}")
    if not is_alabel and len(label) >= 4 and label[2:4] == "--":
        raise IDNAError(f"label has hyphens in positions 3-4: {label!r}")


def validate_ulabel(label: str, *, allow_contextual: bool = True) -> str:
    """Validate and normalise a Unicode label; returns the normalised form."""
    if not label:
        raise IDNAError("empty label")
    normalised = unicodedata.normalize("NFC", label.casefold())
    if len(normalised.encode("utf-8")) > MAX_LABEL_OCTETS * 4:
        raise IDNAError("label too long")
    for ch in normalised:
        prop = derived_property(ord(ch))
        if prop is DerivedProperty.PVALID:
            continue
        if allow_contextual and prop in (DerivedProperty.CONTEXTJ, DerivedProperty.CONTEXTO):
            continue
        raise IDNAError(
            f"code point U+{ord(ch):04X} ({prop.value}) not permitted in IDN label {label!r}"
        )
    _check_hyphens(normalised, is_alabel=False)
    return normalised


def _label_forms(label: str) -> tuple[str, str]:
    """Both forms of one label: ``(A-label, U-label)``.

    An ACE label is LDH-checked and decoded exactly once, and that decode
    is its U-label.  A plain ASCII label is its own U-label (lower-cased).
    A Unicode label is encoded once and is its own (validated) U-label:
    Punycode decoding its encoding would only give it back.
    """
    label = label.strip()
    if not label:
        raise IDNAError("empty label")
    if is_ace_label(label):
        alabel = label.lower()
        return alabel, _decode_alabel(alabel)
    if label.isascii():
        lowered = label.lower()
        if not LDH_CHARS.issuperset(lowered):
            raise IDNAError(f"label contains non-LDH ASCII characters: {label!r}")
        _check_hyphens(lowered, is_alabel=False)
        if len(lowered) > MAX_LABEL_OCTETS:
            raise IDNAError(f"label exceeds {MAX_LABEL_OCTETS} octets: {label!r}")
        return lowered, lowered
    ulabel = validate_ulabel(label)
    if ulabel.isascii():
        # Normalisation (e.g. case folding of ß) can turn a label pure-ASCII;
        # such labels are not encoded as A-labels.
        _check_hyphens(ulabel, is_alabel=False)
        return ulabel, ulabel
    alabel = ACE_PREFIX + punycode.encode(ulabel)
    if len(alabel) > MAX_LABEL_OCTETS:
        raise IDNAError(f"A-label exceeds {MAX_LABEL_OCTETS} octets: {alabel!r}")
    return alabel, ulabel


def to_ascii_label(label: str) -> str:
    """Convert a single label to its A-label (ASCII) form.

    Pure-ASCII labels are returned lower-cased and unchanged (no prefix);
    labels already carrying the ACE prefix are checked to decode.
    """
    return _label_forms(label)[0]


def to_unicode_label(label: str) -> str:
    """Convert a single label to its U-label (Unicode) form.

    Non-ACE labels are case-folded with the length-preserving
    :func:`fold_label` — plain ``str.lower()`` could change their length,
    misaligning position-indexed consumers (matcher substitutions, warning
    annotations) relative to the input.
    """
    label = label.strip()
    if not label:
        raise IDNAError("empty label")
    if not is_ace_label(label):
        return fold_label(label)
    return _decode_alabel(label.lower())  # an ACE label is pure ASCII, so lower() is length-safe


def _decode_alabel(label: str) -> str:
    """The U-label of the lower-cased ACE *label*, checked like any A-label."""
    if len(label) > MAX_LABEL_OCTETS:
        # A real A-label never exceeds 63 octets; crafted oversized payloads
        # would otherwise reach the (quadratic) Punycode decoder.
        raise IDNAError(f"A-label exceeds {MAX_LABEL_OCTETS} octets: {label[:80]!r}...")
    if not LDH_CHARS.issuperset(label):
        raise IDNAError(f"A-label contains non-LDH characters: {label!r}")
    encoded = label[len(ACE_PREFIX):]
    if not encoded:
        raise IDNAError("empty A-label payload")
    try:
        decoded = punycode.decode(encoded)
    except punycode.PunycodeError as exc:
        raise IDNAError(f"invalid Punycode in label {label!r}: {exc}") from exc
    if decoded.isascii():
        raise IDNAError(f"A-label {label!r} decodes to pure ASCII")
    return decoded


def domain_forms(domain: str) -> tuple[str, str]:
    """Both forms of a full domain name: ``(ascii, unicode)``.

    Each label goes through :func:`_label_forms`, so every A-label is
    decoded exactly once and that decode is its Unicode form.
    """
    forms = [_label_forms(label) for label in split_labels(domain)]
    ascii_form = ".".join(alabel for alabel, _ in forms)
    if len(ascii_form) > MAX_DOMAIN_OCTETS:
        raise IDNAError(f"domain exceeds {MAX_DOMAIN_OCTETS} octets: {domain!r}")
    unicode_form = ".".join(ulabel for _, ulabel in forms)
    # An all-ASCII name keeps one string for both forms, not two equal copies.
    return ascii_form, ascii_form if unicode_form == ascii_form else unicode_form


def encode_domain(domain: str) -> str:
    """Convert a full domain name to its ASCII (A-label) form."""
    return domain_forms(domain)[0]


def decode_domain(domain: str) -> str:
    """Convert a full domain name to its Unicode (U-label) form."""
    labels = split_labels(domain)
    return ".".join(to_unicode_label(label) for label in labels)


def split_labels(domain: str) -> list[str]:
    """The raw labels of *domain*, as every parse here splits them.

    The ideographic and fullwidth dots users may type separate labels
    exactly like ``"."``, so they are read as ``"."`` first; then the
    trailing root dot is dropped, however it is spelled
    (``xn--gogle-jye.com。`` splits like ``xn--gogle-jye.com.``).
    """
    domain = domain.strip()
    for dot in ("。", "．", "｡"):
        domain = domain.replace(dot, ".")
    domain = domain.rstrip(".")
    if not domain:
        raise IDNAError("empty domain name")
    return domain.split(".")


def registrable_of(labels: Sequence[str]) -> str:
    """The registrable label among a name's *labels*: the one under the
    TLD (the paper's Figure 2), or the only label of a one-label name."""
    return labels[-2] if len(labels) >= 2 else labels[0]


def plain_registrable_labels(texts: list[str]) -> list[str]:
    """Per text, its registrable label if it is a plain name, else ``""``:
    at most 253 octets of :data:`PLAIN_LABEL` labels, which is its own
    canonical ASCII and Unicode form.  One regex pass reads the list."""
    joined = "\n".join(texts)
    if joined.count("\n") != len(texts) - 1:
        return [""] * len(texts)   # a text holds a line break (or the list is empty)
    return _PLAIN_NAMES.findall(joined)
