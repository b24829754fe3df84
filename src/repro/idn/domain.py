"""Domain name model.

A :class:`DomainName` wraps a fully qualified domain name and exposes both
of its faces — the ASCII form stored in zone files and the Unicode form the
user sees — plus the structural pieces the detection pipeline works on:
registrable label (the part compared against reference domains), TLD,
IDN-ness, and the scripts used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .idna_codec import (
    ACE_PREFIX,
    IDNAError,
    domain_forms,
    is_ace_label,
)

__all__ = ["DomainName", "IDNAError", "unicode_from_decoded"]


def unicode_from_decoded(ascii: str, registrable_unicode: str) -> str:
    """The Unicode form of the canonical name *ascii* whose registrable
    A-label decodes to *registrable_unicode* (and whose other labels are
    ASCII): that label replaced by its decode."""
    head, _, tld = ascii.rpartition(".")
    subdomains, dot, _alabel = head.rpartition(".")
    return f"{subdomains}{dot}{registrable_unicode}.{tld}"


@dataclass(frozen=True)
class DomainName:
    """A fully qualified domain name (stored in canonical ASCII form).

    Construction validates every label and keeps both forms: the Unicode
    form comes from the same single decode of each A-label that validation
    needs, so reading :attr:`unicode` or :attr:`registrable_unicode` never
    decodes again.
    """

    ascii: str
    #: The Unicode (U-label) form of the whole name, filled at construction.
    unicode: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        canonical, unicode = domain_forms(self.ascii)
        object.__setattr__(self, "ascii", canonical)
        object.__setattr__(self, "unicode", unicode)

    # -- constructors -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DomainName":
        """Build from either a Unicode or an ASCII/A-label representation."""
        return cls(text)

    # -- representations ------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """ASCII labels, left to right."""
        return tuple(self.ascii.split("."))

    @property
    def unicode_labels(self) -> tuple[str, ...]:
        """Unicode labels, left to right."""
        return tuple(self.unicode.split("."))

    @property
    def tld(self) -> str:
        """The top-level domain (rightmost label), in ASCII form."""
        return self.ascii.rpartition(".")[2]

    @property
    def registrable_label(self) -> str:
        """The label registered under the TLD (e.g. ``google`` in ``google.com``),
        in ASCII form."""
        if len(self.labels) < 2:
            return self.labels[0]
        return self.labels[-2]

    @property
    def registrable_unicode(self) -> str:
        """Unicode form of :attr:`registrable_label`."""
        labels = self.unicode.rsplit(".", 2)
        return labels[-2] if len(labels) >= 2 else labels[0]

    @property
    def sld_and_tld(self) -> str:
        """``label.tld`` — the name the measurement pipeline deduplicates on."""
        if len(self.labels) < 2:
            return self.ascii
        return f"{self.registrable_label}.{self.tld}"

    # -- IDN properties -----------------------------------------------------------

    @property
    def is_idn(self) -> bool:
        """True when any label is an A-label (starts with ``xn--``)."""
        return any(is_ace_label(label) for label in self.labels)

    @property
    def has_idn_registrable_label(self) -> bool:
        """True when the registrable label itself is an IDN label."""
        return is_ace_label(self.registrable_label)

    @cached_property
    def scripts(self) -> frozenset[str]:
        """Scripts used by the registrable label's Unicode form."""
        from ..unicode import scripts   # the script tables load only for this

        return frozenset(scripts.scripts_of_text(self.registrable_unicode))

    @property
    def is_mixed_script(self) -> bool:
        """True when the registrable label mixes multiple scripts."""
        from ..unicode import scripts

        return scripts.is_mixed_script(self.registrable_unicode)

    # -- dunder -----------------------------------------------------------------------

    def __str__(self) -> str:
        return self.ascii

    def __repr__(self) -> str:
        if self.is_idn:
            return f"DomainName({self.ascii!r} / {self.unicode!r})"
        return f"DomainName({self.ascii!r})"

    @property
    def ace_prefix(self) -> str:
        """The ACE prefix constant (exposed for convenience)."""
        return ACE_PREFIX
