"""Homoglyph databases: SimChar construction, UC confusables, invisible
characters, and the pluggable source registry composing them."""

import importlib

#: Public name -> the submodule that defines it.  A submodule is imported on
#: first use of one of its names (PEP 562), so importing one part of the
#: package does not import the rest.
_EXPORTS = {
    "BlockComparison": "blocks",
    "block_abbreviations": "blocks",
    "compare_top_blocks": "blocks",
    "ConfusablesTable": "confusables",
    "SkippedEntries": "confusables",
    "load_confusables": "confusables",
    "parse_confusables": "confusables",
    "SOURCE_INVISIBLE": "database",
    "SOURCE_SIMCHAR": "database",
    "SOURCE_UC": "database",
    "HomoglyphDatabase": "database",
    "HomoglyphPair": "database",
    "INVISIBLE_TABLE_VERSION": "invisible",
    "InvisibleFinding": "invisible",
    "InvisibleTable": "invisible",
    "default_invisible_table": "invisible",
    "LatinCoverageRow": "latin",
    "latin_coverage_table": "latin",
    "most_vulnerable_letters": "latin",
    "DEFAULT_SOURCES": "registry",
    "BuildContext": "registry",
    "DatabaseRegistry": "registry",
    "RegistryBuild": "registry",
    "SourceBuild": "registry",
    "UnknownSourceError": "registry",
    "default_registry": "registry",
    "DEFAULT_REPERTOIRE_BLOCKS": "simchar",
    "DEFAULT_SPARSE_MIN_PIXELS": "simchar",
    "DEFAULT_THRESHOLD": "simchar",
    "BuildTimings": "simchar",
    "SimCharBuilder": "simchar",
    "SimCharResult": "simchar",
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
