"""Font/glyph substrate: bitmap glyphs, Unifont .hex parsing, synthetic font."""

import importlib

#: Public name -> the submodule that defines it.  A submodule is imported on
#: first use of one of its names (PEP 562), so importing one part of the
#: package does not import the rest.
_EXPORTS = {
    "SHAPE_EQUIVALENCES": "equivalences",
    "equivalence_groups": "equivalences",
    "shape_equivalence": "equivalences",
    "GLYPH_SIZE": "glyph",
    "Glyph": "glyph",
    "HexFont": "hexfont",
    "format_hex_line": "hexfont",
    "parse_hex_line": "hexfont",
    "DATA_DIR": "registry",
    "FontProtocol": "registry",
    "FontRegistry": "registry",
    "default_font": "registry",
    "SPARSE_CATEGORIES": "synthetic",
    "ShapeSpec": "synthetic",
    "SyntheticFont": "synthetic",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{submodule}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
