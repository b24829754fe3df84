"""Unicode substrate: blocks, scripts, IDNA2008 derived properties, code points."""

import importlib

#: Public name -> the submodule that defines it.  A submodule is imported on
#: first use of one of its names (PEP 562), so importing one part of the
#: package does not import the rest.
_EXPORTS = {
    "BLOCKS": "blocks",
    "UnicodeBlock": "blocks",
    "block_name": "blocks",
    "block_of": "blocks",
    "blocks_in_plane": "blocks",
    "iter_blocks": "blocks",
    "CodePoint": "codepoint",
    "codepoints_of": "codepoint",
    "format_codepoint": "codepoint",
    "DerivedProperty": "idna",
    "derived_property": "idna",
    "is_idna_permitted": "idna",
    "is_pvalid": "idna",
    "iter_pvalid": "idna",
    "pvalid_count": "idna",
    "HIGHLY_CONFUSABLE_SCRIPTS": "scripts",
    "KNOWN_SCRIPTS": "scripts",
    "dominant_script": "scripts",
    "is_mixed_script": "scripts",
    "script_of": "scripts",
    "scripts_of_text": "scripts",
    "assigned_codepoints": "ucd",
    "assigned_count": "ucd",
    "idna_repertoire": "ucd",
    "is_assigned": "ucd",
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
