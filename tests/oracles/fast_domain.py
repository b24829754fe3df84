"""Reference fast-parse rule of the batch kernel's domain pass, as a regex.

:meth:`repro.detection.batchfold.BatchFoldKernel.domain_misses` decides
with numpy passes which names it can read without
:class:`~repro.idn.domain.DomainName`: at least two lowercase LDH labels,
each obeying the hyphen rules (no leading/trailing hyphen, no ``--`` in
positions 3-4) and the 63-octet cap, except that the registrable
(second-to-last) label may be a lowercase ``xn--`` A-label, whose payload
the batch decoder then decodes; at most 253 octets in all.  An ``xn--``
TLD or subdomain label, or an uppercase ``XN--``, takes the scalar parse.

:data:`FAST_DOMAIN_RE` is that rule spelled out on its own, without the
label alphabet and caps of :mod:`repro.idn.idna_codec`, so a change to
those shows up as a disagreement.  A ``fullmatch`` plus the 253-octet cap
is the oracle the property suites compare the numpy pass against.
"""

from __future__ import annotations

import re

__all__ = ["FAST_LABEL", "FAST_DOMAIN_RE"]

#: One plain label: lowercase LDH, 1-63 octets, no hyphen at either end or
#: in positions 3-4.
FAST_LABEL = r"(?!-)(?![a-z0-9_-]{2}--)[a-z0-9_-]{1,63}(?<!-)"
#: A lowercase A-label of at most 63 octets that does not end in a hyphen.
_FAST_ALABEL = r"xn--[a-z0-9_-]{1,59}(?<!-)"
FAST_DOMAIN_RE = re.compile(
    rf"(?:{FAST_LABEL}\.)*(?:{FAST_LABEL}|{_FAST_ALABEL})\.{FAST_LABEL}")
