"""Font registry.

The homoglyph pipeline is font-agnostic: any object exposing ``covers``,
``render`` and ``glyph_size`` can be used (GNU Unifont loaded from a
``.hex`` file, the deterministic synthetic font, or a user-supplied font).
This module provides a tiny registry plus the "give me the best available
font" helper that prefers a real ``unifont*.hex`` file when one is present
in the data directory and falls back to the synthetic font otherwise, as
documented in DESIGN.md.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from .glyph import Glyph

__all__ = ["FontProtocol", "FontRegistry", "default_font", "default_font_is_pending_synthetic",
           "DATA_DIR"]

#: Directory searched for ``unifont*.hex`` files.
DATA_DIR = Path(os.environ.get("SHAMFINDER_DATA_DIR", Path(__file__).resolve().parents[3] / "data"))


@runtime_checkable
class FontProtocol(Protocol):
    """Minimal interface the homoglyph pipeline needs from a font."""

    name: str
    glyph_size: int

    def covers(self, codepoint: int) -> bool:
        """True when the font can render the code point."""

    def render(self, codepoint: int) -> Glyph:
        """Render the code point as a binary glyph."""


class FontRegistry:
    """Named collection of fonts with a configurable default."""

    def __init__(self) -> None:
        self._fonts: dict[str, FontProtocol] = {}
        self._default: str | None = None

    def register(self, font: FontProtocol, *, default: bool = False) -> FontProtocol:
        """Register *font* under its ``name`` (optionally as the default)."""
        self._fonts[font.name] = font
        if default or self._default is None:
            self._default = font.name
        return font

    def get(self, name: str) -> FontProtocol:
        """Look up a registered font by name."""
        try:
            return self._fonts[name]
        except KeyError:
            raise KeyError(
                f"no font named {name!r}; registered: {sorted(self._fonts)}"
            ) from None

    def names(self) -> list[str]:
        """Names of all registered fonts."""
        return sorted(self._fonts)

    @property
    def default(self) -> FontProtocol:
        """The default font (raises if the registry is empty)."""
        if self._default is None:
            raise LookupError("font registry is empty")
        return self._fonts[self._default]

    def __contains__(self, name: str) -> bool:
        return name in self._fonts

    def __len__(self) -> int:
        return len(self._fonts)


_GLOBAL_REGISTRY: FontRegistry | None = None


def _find_hex_file() -> Path | None:
    if not DATA_DIR.is_dir():
        return None
    candidates = sorted(DATA_DIR.glob("unifont*.hex"))
    return candidates[0] if candidates else None


def default_font_is_pending_synthetic() -> bool:
    """True when :func:`default_font` has not run yet and would create the
    synthetic font at its default size: a font that code alone defines."""
    return _GLOBAL_REGISTRY is None and _find_hex_file() is None


def default_font(*, glyph_size: int | None = None, refresh: bool = False) -> FontProtocol:
    """Return the best available font.

    A real GNU Unifont ``.hex`` file in the data directory wins; otherwise
    the deterministic synthetic font is used.  The result is cached in a
    module-level registry so repeated calls share glyph caches.
    *glyph_size* defaults to :data:`~.glyph.GLYPH_SIZE`.
    """
    global _GLOBAL_REGISTRY
    if _GLOBAL_REGISTRY is not None and not refresh:
        return _GLOBAL_REGISTRY.default

    from .glyph import GLYPH_SIZE
    from .hexfont import HexFont
    from .synthetic import SyntheticFont

    if glyph_size is None:
        glyph_size = GLYPH_SIZE
    registry = FontRegistry()
    hex_path = _find_hex_file()
    if hex_path is not None:
        registry.register(HexFont.from_file(hex_path, glyph_size=glyph_size), default=True)
        registry.register(SyntheticFont(glyph_size))
    else:
        registry.register(SyntheticFont(glyph_size), default=True)
    _GLOBAL_REGISTRY = registry
    return registry.default
