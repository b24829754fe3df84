"""UC — the Unicode confusables database (TR#39 ``confusables.txt``).

The paper's second homoglyph source is the confusable-mapping file
maintained by the Unicode consortium ("UC" for short).  The real file maps
a *source* character sequence to its *skeleton* (a prototype sequence); two
strings are confusable when their skeletons match.

This module provides

* a parser for the genuine ``confusables.txt`` format, so the real file can
  be dropped into the data directory and used verbatim, and
* an embedded seed written in the same format, containing several hundred
  genuine confusable mappings curated from the homograph literature (used
  when the real file is unavailable — see DESIGN.md §2).

The loaded mappings are exposed both as a skeleton function (TR#39
semantics) and as a :class:`~repro.homoglyph.database.HomoglyphDatabase`
of single-character pairs, which is what the detection algorithm consumes.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .database import SOURCE_UC, HomoglyphDatabase, HomoglyphPair

__all__ = [
    "parse_confusables",
    "load_confusables",
    "ConfusablesTable",
    "SkippedEntries",
    "EMBEDDED_CONFUSABLES",
]

# ---------------------------------------------------------------------------
# Embedded seed (confusables.txt syntax:  source ; target ; type # comment)
# ---------------------------------------------------------------------------

EMBEDDED_CONFUSABLES = """
# Embedded confusables seed (TR39 syntax). Sources: homograph literature.
# --- Cyrillic lowercase vs Basic Latin ---------------------------------
0430 ; 0061 ; MA # CYRILLIC SMALL LETTER A -> a
0435 ; 0065 ; MA # CYRILLIC SMALL LETTER IE -> e
043E ; 006F ; MA # CYRILLIC SMALL LETTER O -> o
0440 ; 0070 ; MA # CYRILLIC SMALL LETTER ER -> p
0441 ; 0063 ; MA # CYRILLIC SMALL LETTER ES -> c
0443 ; 0079 ; MA # CYRILLIC SMALL LETTER U -> y
0445 ; 0078 ; MA # CYRILLIC SMALL LETTER HA -> x
0455 ; 0073 ; MA # CYRILLIC SMALL LETTER DZE -> s
0456 ; 0069 ; MA # CYRILLIC SMALL LETTER BYELORUSSIAN-UKRAINIAN I -> i
0458 ; 006A ; MA # CYRILLIC SMALL LETTER JE -> j
04BB ; 0068 ; MA # CYRILLIC SMALL LETTER SHHA -> h
0501 ; 0064 ; MA # CYRILLIC SMALL LETTER KOMI DE -> d
051B ; 0071 ; MA # CYRILLIC SMALL LETTER QA -> q
051D ; 0077 ; MA # CYRILLIC SMALL LETTER WE -> w
0475 ; 0076 ; MA # CYRILLIC SMALL LETTER IZHITSA -> v
04CF ; 006C ; MA # CYRILLIC SMALL LETTER PALOCHKA -> l
0461 ; 0077 ; MA # CYRILLIC SMALL LETTER OMEGA -> w
04D5 ; 0061 0065 ; MA # CYRILLIC SMALL LIGATURE A IE -> ae
# --- Cyrillic uppercase vs Latin uppercase (not IDNA-permitted) ---------
0410 ; 0041 ; MA # CYRILLIC CAPITAL A -> A
0412 ; 0042 ; MA # CYRILLIC CAPITAL VE -> B
0415 ; 0045 ; MA # CYRILLIC CAPITAL IE -> E
041A ; 004B ; MA # CYRILLIC CAPITAL KA -> K
041C ; 004D ; MA # CYRILLIC CAPITAL EM -> M
041D ; 0048 ; MA # CYRILLIC CAPITAL EN -> H
041E ; 004F ; MA # CYRILLIC CAPITAL O -> O
0420 ; 0050 ; MA # CYRILLIC CAPITAL ER -> P
0421 ; 0043 ; MA # CYRILLIC CAPITAL ES -> C
0422 ; 0054 ; MA # CYRILLIC CAPITAL TE -> T
0425 ; 0058 ; MA # CYRILLIC CAPITAL HA -> X
0405 ; 0053 ; MA # CYRILLIC CAPITAL DZE -> S
0406 ; 0049 ; MA # CYRILLIC CAPITAL I -> I
0408 ; 004A ; MA # CYRILLIC CAPITAL JE -> J
04AE ; 0059 ; MA # CYRILLIC CAPITAL STRAIGHT U -> Y
# --- Greek vs Latin ------------------------------------------------------
03B1 ; 0061 ; MA # GREEK SMALL LETTER ALPHA -> a
03B5 ; 0065 ; MA # GREEK SMALL LETTER EPSILON -> e
03B9 ; 0069 ; MA # GREEK SMALL LETTER IOTA -> i
03BA ; 006B ; MA # GREEK SMALL LETTER KAPPA -> k
03BD ; 0076 ; MA # GREEK SMALL LETTER NU -> v
03BF ; 006F ; MA # GREEK SMALL LETTER OMICRON -> o
03C1 ; 0070 ; MA # GREEK SMALL LETTER RHO -> p
03C3 ; 006F ; MA # GREEK SMALL LETTER SIGMA -> o
03C5 ; 0075 ; MA # GREEK SMALL LETTER UPSILON -> u
03C7 ; 0078 ; MA # GREEK SMALL LETTER CHI -> x
03C9 ; 0077 ; MA # GREEK SMALL LETTER OMEGA -> w
03F2 ; 0063 ; MA # GREEK LUNATE SIGMA SYMBOL -> c
0391 ; 0041 ; MA # GREEK CAPITAL ALPHA -> A
0392 ; 0042 ; MA # GREEK CAPITAL BETA -> B
0395 ; 0045 ; MA # GREEK CAPITAL EPSILON -> E
0396 ; 005A ; MA # GREEK CAPITAL ZETA -> Z
0397 ; 0048 ; MA # GREEK CAPITAL ETA -> H
0399 ; 0049 ; MA # GREEK CAPITAL IOTA -> I
039A ; 004B ; MA # GREEK CAPITAL KAPPA -> K
039C ; 004D ; MA # GREEK CAPITAL MU -> M
039D ; 004E ; MA # GREEK CAPITAL NU -> N
039F ; 004F ; MA # GREEK CAPITAL OMICRON -> O
03A1 ; 0050 ; MA # GREEK CAPITAL RHO -> P
03A4 ; 0054 ; MA # GREEK CAPITAL TAU -> T
03A5 ; 0059 ; MA # GREEK CAPITAL UPSILON -> Y
03A7 ; 0058 ; MA # GREEK CAPITAL CHI -> X
# --- Armenian vs Latin ----------------------------------------------------
0585 ; 006F ; MA # ARMENIAN SMALL LETTER OH -> o
0570 ; 0068 ; MA # ARMENIAN SMALL LETTER HO -> h
0578 ; 006E ; MA # ARMENIAN SMALL LETTER VO -> n
0575 ; 006A ; MA # ARMENIAN SMALL LETTER YI -> j
057D ; 0075 ; MA # ARMENIAN SMALL LETTER SEH -> u
0581 ; 0067 ; MA # ARMENIAN SMALL LETTER CO -> g
0584 ; 0066 ; MA # ARMENIAN SMALL LETTER KEH -> f
0561 ; 0077 ; MA # ARMENIAN SMALL LETTER AYB -> w
# --- Hebrew / Arabic ------------------------------------------------------
05D5 ; 0069 ; MA # HEBREW LETTER VAV -> i
05DF ; 006C ; MA # HEBREW LETTER FINAL NUN -> l
05E1 ; 006F ; MA # HEBREW LETTER SAMEKH -> o
0647 ; 006F ; MA # ARABIC LETTER HEH -> o
0665 ; 006F ; MA # ARABIC-INDIC DIGIT FIVE -> o
06F5 ; 006F ; MA # EXTENDED ARABIC-INDIC DIGIT FIVE -> o
0661 ; 006C ; MA # ARABIC-INDIC DIGIT ONE -> l
0627 ; 006C ; MA # ARABIC LETTER ALEF -> l
# --- Latin extensions / IPA -----------------------------------------------
0131 ; 0069 ; MA # LATIN SMALL LETTER DOTLESS I -> i
0237 ; 006A ; MA # LATIN SMALL LETTER DOTLESS J -> j
0251 ; 0061 ; MA # LATIN SMALL LETTER ALPHA -> a
0261 ; 0067 ; MA # LATIN SMALL LETTER SCRIPT G -> g
0269 ; 0069 ; MA # LATIN SMALL LETTER IOTA -> i
026A ; 0069 ; MA # LATIN LETTER SMALL CAPITAL I -> i
028F ; 0079 ; MA # LATIN LETTER SMALL CAPITAL Y -> y
0283 ; 0066 ; MA # LATIN SMALL LETTER ESH -> f
0280 ; 0072 ; MA # LATIN LETTER SMALL CAPITAL R -> r
1D0F ; 006F ; MA # LATIN LETTER SMALL CAPITAL O -> o
1D1C ; 0075 ; MA # LATIN LETTER SMALL CAPITAL U -> u
1D20 ; 0076 ; MA # LATIN LETTER SMALL CAPITAL V -> v
1D21 ; 0077 ; MA # LATIN LETTER SMALL CAPITAL W -> w
1D22 ; 007A ; MA # LATIN LETTER SMALL CAPITAL Z -> z
# --- Georgian -----------------------------------------------------------------
10E7 ; 0079 ; MA # GEORGIAN LETTER QAR -> y
10FF ; 006F ; MA # GEORGIAN LETTER LABIAL SIGN -> o
10D0 ; 0073 ; MA # GEORGIAN LETTER AN -> s
10DD ; 006F ; MA # GEORGIAN LETTER ON -> o
# --- Cherokee (mostly uppercase shapes, not IDNA-permitted) --------------------
13A0 ; 0044 ; MA # CHEROKEE LETTER A -> D
13A1 ; 0052 ; MA # CHEROKEE LETTER E -> R
13A2 ; 0054 ; MA # CHEROKEE LETTER I -> T
13AA ; 0041 ; MA # CHEROKEE LETTER GO -> A
13B3 ; 0057 ; MA # CHEROKEE LETTER LA -> W
13B7 ; 004D ; MA # CHEROKEE LETTER LU -> M
13BB ; 0048 ; MA # CHEROKEE LETTER MI -> H
13BD ; 0059 ; MA # CHEROKEE LETTER MU -> Y
13C0 ; 0047 ; MA # CHEROKEE LETTER NAH -> G
13C2 ; 0068 ; MA # CHEROKEE LETTER NI -> h
13C3 ; 005A ; MA # CHEROKEE LETTER NO -> Z
13CF ; 0062 ; MA # CHEROKEE LETTER SI -> b
13D9 ; 0056 ; MA # CHEROKEE LETTER DO -> V
13DA ; 0053 ; MA # CHEROKEE LETTER DU -> S
13DE ; 004C ; MA # CHEROKEE LETTER TLE -> L
13DF ; 0043 ; MA # CHEROKEE LETTER TLI -> C
13E2 ; 0050 ; MA # CHEROKEE LETTER TLV -> P
13E6 ; 0064 ; MA # CHEROKEE LETTER TSU -> d
13F4 ; 0042 ; MA # CHEROKEE LETTER YV -> B
# --- Lisu -----------------------------------------------------------------------
A4D0 ; 0042 ; MA # LISU LETTER BA -> B
A4D1 ; 0050 ; MA # LISU LETTER PA -> P
A4D3 ; 0044 ; MA # LISU LETTER DA -> D
A4D4 ; 0054 ; MA # LISU LETTER TA -> T
A4D6 ; 0047 ; MA # LISU LETTER GA -> G
A4DA ; 004A ; MA # LISU LETTER JA -> J
A4DC ; 0043 ; MA # LISU LETTER CA -> C
A4E0 ; 005A ; MA # LISU LETTER DZA -> Z
A4E2 ; 0053 ; MA # LISU LETTER SA -> S
A4E4 ; 0052 ; MA # LISU LETTER ZHA -> R
A4E6 ; 0056 ; MA # LISU LETTER HA -> V
A4E7 ; 0057 ; MA # LISU LETTER XA -> W
A4EA ; 0046 ; MA # LISU LETTER FA -> F
A4EB ; 0059 ; MA # LISU LETTER YA -> Y
A4EC ; 0045 ; MA # LISU LETTER GHA -> E
A4F0 ; 0055 ; MA # LISU LETTER U -> U
A4F2 ; 0049 ; MA # LISU LETTER I -> I
A4F3 ; 004F ; MA # LISU LETTER O -> O
A4F4 ; 004E ; MA # LISU LETTER NYA -> N
# --- Fullwidth and halfwidth forms -------------------------------------------------
FF41 ; 0061 ; MA # FULLWIDTH LATIN SMALL LETTER A -> a
FF4F ; 006F ; MA # FULLWIDTH LATIN SMALL LETTER O -> o
FF45 ; 0065 ; MA # FULLWIDTH LATIN SMALL LETTER E -> e
FF49 ; 0069 ; MA # FULLWIDTH LATIN SMALL LETTER I -> i
FF4C ; 006C ; MA # FULLWIDTH LATIN SMALL LETTER L -> l
FF4D ; 006D ; MA # FULLWIDTH LATIN SMALL LETTER M -> m
FF53 ; 0073 ; MA # FULLWIDTH LATIN SMALL LETTER S -> s
# --- Digits and punctuation lookalikes ----------------------------------------------
0030 ; 004F ; MA # DIGIT ZERO -> O
0031 ; 006C ; MA # DIGIT ONE -> l
2160 ; 0049 ; MA # ROMAN NUMERAL ONE -> I
2170 ; 0069 ; MA # SMALL ROMAN NUMERAL ONE -> i
217C ; 006C ; MA # SMALL ROMAN NUMERAL FIFTY -> l
2113 ; 006C ; MA # SCRIPT SMALL L -> l
212A ; 004B ; MA # KELVIN SIGN -> K
212B ; 0041 ; MA # ANGSTROM SIGN -> A
2126 ; 03A9 ; MA # OHM SIGN -> GREEK CAPITAL OMEGA
00B5 ; 03BC ; MA # MICRO SIGN -> GREEK SMALL MU
2010 ; 002D ; MA # HYPHEN -> HYPHEN-MINUS
2011 ; 002D ; MA # NON-BREAKING HYPHEN -> HYPHEN-MINUS
02BC ; 0027 ; MA # MODIFIER LETTER APOSTROPHE -> APOSTROPHE
0574 ; 0075 0078 ; MA # ARMENIAN SMALL LETTER MEN -> ux (sequence skeleton)
# --- Mathematical alphanumerics (not IDNA-permitted) ---------------------------------
1D41A ; 0061 ; MA # MATHEMATICAL BOLD SMALL A -> a
1D41B ; 0062 ; MA # MATHEMATICAL BOLD SMALL B -> b
1D41C ; 0063 ; MA # MATHEMATICAL BOLD SMALL C -> c
1D430 ; 0061 ; MA # MATHEMATICAL ITALIC SMALL A -> a
1D44E ; 0061 ; MA # MATHEMATICAL BOLD ITALIC SMALL A -> a
1D5BA ; 0061 ; MA # MATHEMATICAL SANS-SERIF SMALL A -> a
1D5EE ; 0061 ; MA # MATHEMATICAL SANS-SERIF BOLD SMALL A -> a
1D622 ; 0061 ; MA # MATHEMATICAL SANS-SERIF ITALIC SMALL A -> a
1D656 ; 0061 ; MA # MATHEMATICAL SANS-SERIF BOLD ITALIC SMALL A -> a
1D68A ; 0061 ; MA # MATHEMATICAL MONOSPACE SMALL A -> a
1D7D8 ; 0030 ; MA # MATHEMATICAL DOUBLE-STRUCK DIGIT ZERO -> 0
1D7D9 ; 0031 ; MA # MATHEMATICAL DOUBLE-STRUCK DIGIT ONE -> 1
# --- Warang Citi / Deseret / Osage (paper Figure 11 examples) -------------------------
118D8 ; 0075 ; MA # WARANG CITI SMALL LETTER PU -> u   (judged distinct by participants)
118DC ; 0079 ; MA # WARANG CITI SMALL LETTER HAR -> y  (judged distinct by participants)
10428 ; 0063 ; MA # DESERET SMALL LETTER LONG E -> c
104E3 ; 0075 ; MA # OSAGE SMALL LETTER EHCHA -> u
# --- Thai / Lao round shapes -----------------------------------------------------------
0E4F ; 006F ; MA # THAI CHARACTER FONGMAN -> o
0ED0 ; 006F ; MA # LAO DIGIT ZERO -> o
0E1E ; 0077 ; MA # THAI CHARACTER PHO PHAN -> w
0E9E ; 0077 ; MA # LAO LETTER PHO TAM -> w
# --- Combining diacritical marks (map to nothing-like skeleton partners) -----------------
0300 ; 0060 ; MA # COMBINING GRAVE ACCENT -> GRAVE ACCENT
0301 ; 00B4 ; MA # COMBINING ACUTE ACCENT -> ACUTE ACCENT
0302 ; 005E ; MA # COMBINING CIRCUMFLEX ACCENT -> CIRCUMFLEX ACCENT
0303 ; 007E ; MA # COMBINING TILDE -> TILDE
0304 ; 00AF ; MA # COMBINING MACRON -> MACRON
0305 ; 00AF ; MA # COMBINING OVERLINE -> MACRON
0306 ; 02D8 ; MA # COMBINING BREVE -> BREVE
0307 ; 02D9 ; MA # COMBINING DOT ABOVE -> DOT ABOVE
0308 ; 00A8 ; MA # COMBINING DIAERESIS -> DIAERESIS
030A ; 02DA ; MA # COMBINING RING ABOVE -> RING ABOVE
030B ; 02DD ; MA # COMBINING DOUBLE ACUTE -> DOUBLE ACUTE ACCENT
030C ; 02C7 ; MA # COMBINING CARON -> CARON
0327 ; 00B8 ; MA # COMBINING CEDILLA -> CEDILLA
0328 ; 02DB ; MA # COMBINING OGONEK -> OGONEK
0331 ; 005F ; MA # COMBINING MACRON BELOW -> LOW LINE
# --- CJK / Kana confusions ----------------------------------------------------------------
30A8 ; 5DE5 ; MA # KATAKANA LETTER E -> CJK 工
30AB ; 529B ; MA # KATAKANA LETTER KA -> CJK 力
30ED ; 53E3 ; MA # KATAKANA LETTER RO -> CJK 口
30BF ; 5915 ; MA # KATAKANA LETTER TA -> CJK 夕
30CB ; 4E8C ; MA # KATAKANA LETTER NI -> CJK 二
30CF ; 516B ; MA # KATAKANA LETTER HA -> CJK 八
30FC ; 4E00 ; MA # PROLONGED SOUND MARK -> CJK 一
30ET ; 0000 ; MA # (intentionally malformed line exercised by the parser tests)
4E36 ; 4E00 ; MA # CJK 丶 -> 一 (stroke confusion)
5DEE ; 5DE6 ; MA # CJK 差 -> 左 (near shape)
672B ; 672A ; MA # CJK 末 -> 未
58EB ; 571F ; MA # CJK 士 -> 土
66F0 ; 65E5 ; MA # CJK 曰 -> 日
5165 ; 4EBA ; MA # CJK 入 -> 人
5DF2 ; 5DF1 ; MA # CJK 已 -> 己
5DF3 ; 5DF1 ; MA # CJK 巳 -> 己
7531 ; 7530 ; MA # CJK 由 -> 田
7532 ; 7530 ; MA # CJK 甲 -> 田
7533 ; 7530 ; MA # CJK 申 -> 田
# --- Arabic letter-form confusions -----------------------------------------------------------
0649 ; 064A ; MA # ARABIC LETTER ALEF MAKSURA -> YEH
06CC ; 064A ; MA # ARABIC LETTER FARSI YEH -> YEH
06A9 ; 0643 ; MA # ARABIC LETTER KEHEH -> KAF
0629 ; 0647 ; MA # ARABIC LETTER TEH MARBUTA -> HEH
# --- Thai near-pairs ---------------------------------------------------------------------------
0E14 ; 0E04 ; MA # THAI CHARACTER DO DEK -> KHO KHWAI
0E1A ; 0E1B ; MA # THAI CHARACTER BO BAIMAI -> PO PLA
0E40 ; 0E41 ; MA # THAI CHARACTER SARA E -> SARA AE (single vs double)
# --- Hangul jamo-level confusions ----------------------------------------------------------------
3131 ; 30FD ; MA # HANGUL LETTER KIYEOK -> KATAKANA ITERATION MARK (approx)
3147 ; 006F ; MA # HANGUL LETTER IEUNG -> o
"""


@dataclass(frozen=True)
class SkippedEntries:
    """What :func:`parse_confusables` dropped, and why.

    The real ``confusables.txt`` contains thousands of multi-character
    *source* sequences (ligatures like ﬁ → fi) that the per-character
    detection algorithm cannot use; dropping them is correct, but doing so
    silently made a truncated or mis-formatted file indistinguishable from
    a healthy one.  The counts put a number on every skip reason.
    """

    #: entry lines that failed to parse (bad hex, too few fields, invalid
    #: or surrogate code points)
    malformed: int = 0
    #: well-formed entries whose source is a multi-character sequence
    multi_char_source: int = 0
    #: non-comment, non-blank lines considered (kept + skipped)
    entry_lines: int = 0

    @property
    def total(self) -> int:
        """Every dropped entry line, regardless of reason."""
        return self.malformed + self.multi_char_source

    @property
    def dropped_fraction(self) -> float:
        """Share of entry lines dropped (0.0 for an empty input)."""
        if self.entry_lines == 0:
            return 0.0
        return self.total / self.entry_lines


class ConfusablesTable:
    """Parsed confusable mappings with TR#39 skeleton semantics."""

    def __init__(
        self,
        mapping: Mapping[str, str],
        *,
        name: str = "UC",
        skipped: SkippedEntries | None = None,
    ) -> None:
        self.name = name
        self._mapping = dict(mapping)
        #: Parser drop counts for the input this table came from.
        self.skipped = skipped if skipped is not None else SkippedEntries()
        #: SHA-256 of the text :func:`load_confusables` parsed (``""`` for a
        #: table built any other way)
        self.source_digest = ""

    # -- TR39 operations ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, char: str) -> bool:
        return char in self._mapping

    def prototype(self, char: str) -> str:
        """Return the mapped prototype of a character (itself if unmapped)."""
        return self._mapping.get(char, char)

    def skeleton(self, text: str) -> str:
        """TR#39 skeleton: map every character, then apply the map again.

        The double application mirrors the standard's requirement that the
        output of the mapping is itself mapped until a fixed point (the real
        table is idempotent after two passes).
        """
        once = "".join(self.prototype(ch) for ch in text)
        return "".join(self.prototype(ch) for ch in once)

    def are_confusable(self, first: str, second: str) -> bool:
        """True when two strings share a skeleton."""
        return self.skeleton(first) == self.skeleton(second)

    def characters(self) -> set[str]:
        """All characters involved in the table (sources and prototypes)."""
        chars: set[str] = set()
        for source, target in self._mapping.items():
            chars.add(source)
            chars.update(target)
        return chars

    # -- conversion ----------------------------------------------------------

    def to_database(self, *, single_char_only: bool = True) -> HomoglyphDatabase:
        """Convert to a :class:`HomoglyphDatabase` of single-character pairs.

        Characters mapping to multi-character skeletons (e.g. ligatures) are
        skipped when ``single_char_only`` is set, because Algorithm 1
        compares domain names character by character.  Characters sharing a
        prototype are also paired with each other (they are mutually
        confusable through the shared skeleton).
        """
        return HomoglyphDatabase.from_pairs(self.pairs(single_char_only=single_char_only),
                                            name=self.name)

    def pairs(self, *, single_char_only: bool = True) -> Iterator[HomoglyphPair]:
        """The pairs :meth:`to_database` holds, in its insertion order (a
        pair may come twice)."""
        by_prototype: dict[str, list[str]] = {}
        for source, target in self._mapping.items():
            if single_char_only and len(target) != 1:
                continue
            if len(source) != 1:
                continue
            if source != target:
                yield HomoglyphPair(source, target, frozenset({SOURCE_UC}))
            by_prototype.setdefault(target, []).append(source)
        for prototype, members in by_prototype.items():
            for i, first in enumerate(members):
                for second in members[i + 1:]:
                    if first != second:
                        yield HomoglyphPair(first, second, frozenset({SOURCE_UC}))


def parse_confusables(lines: Iterable[str], *, name: str = "UC") -> ConfusablesTable:
    """Parse ``confusables.txt``-formatted lines into a :class:`ConfusablesTable`.

    Malformed lines are skipped (the real file contains BOMs, comments and
    blank lines; robustness against stray garbage is intentional) — but
    never silently: every drop is counted on the returned table's
    ``skipped`` record, split by reason, so a caller can tell a healthy
    file from a mangled one.
    """
    mapping: dict[str, str] = {}
    malformed = 0
    multi_char_source = 0
    entry_lines = 0
    for raw in lines:
        line = raw.split("#", 1)[0].strip().lstrip("﻿")
        if not line:
            continue
        entry_lines += 1
        parts = [part.strip() for part in line.split(";")]
        if len(parts) < 2:
            malformed += 1
            continue
        try:
            source_cps = [int(token, 16) for token in parts[0].split()]
            target_cps = [int(token, 16) for token in parts[1].split()]
        except ValueError:
            malformed += 1
            continue
        if not source_cps or not target_cps:
            malformed += 1
            continue
        if any(cp > 0x10FFFF or 0xD800 <= cp <= 0xDFFF for cp in source_cps + target_cps):
            malformed += 1
            continue
        if len(source_cps) != 1:
            # Multi-character sources exist in the real file (ligatures such
            # as ﬁ → fi) but are not usable by the per-character detection
            # algorithm.
            multi_char_source += 1
            continue
        source = chr(source_cps[0])
        target = "".join(chr(cp) for cp in target_cps)
        if source == target:
            continue
        mapping[source] = target
    skipped = SkippedEntries(malformed=malformed,
                             multi_char_source=multi_char_source,
                             entry_lines=entry_lines)
    return ConfusablesTable(mapping, name=name, skipped=skipped)


#: A loaded file dropping more than this share of its entry lines triggers
#: a :class:`UserWarning` — the signal a truncated/mis-encoded file gives.
_DROP_WARN_FRACTION = 0.10


def load_confusables(path: str | os.PathLike | None = None, *, name: str = "UC") -> ConfusablesTable:
    """Load the UC table.

    When *path* is given (or a ``confusables.txt`` exists in the data
    directory) the real file is parsed; otherwise the embedded seed is used.
    """
    if path is None:
        from ..fonts.registry import DATA_DIR

        candidate = Path(DATA_DIR) / "confusables.txt"
        if candidate.is_file():
            path = candidate
    if path is not None:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
        table = parse_confusables(text.split("\n"), name=name)
        dropped = table.skipped.dropped_fraction
        if dropped > _DROP_WARN_FRACTION:
            warnings.warn(
                f"confusables file {path} dropped {table.skipped.total} of "
                f"{table.skipped.entry_lines} entry lines "
                f"({dropped:.0%}: {table.skipped.malformed} malformed, "
                f"{table.skipped.multi_char_source} multi-character sources) — "
                "a real confusables.txt loses its ligature entries by design, "
                "but this share suggests truncation or a wrong file",
                stacklevel=2,
            )
    else:
        text = EMBEDDED_CONFUSABLES
        table = parse_confusables(text.splitlines(), name=name)
    table.source_digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return table
