"""Detection core: Algorithm 1 matcher, skeleton index, streaming scan,
ShamFinder framework, persistable reference index, online query service,
reverting, reports."""

import importlib

#: Public name -> the submodule that defines it.  A submodule is imported on
#: first use of one of its names (PEP 562), so importing one part of the
#: package does not import the rest.
_EXPORTS = {
    "CharacterSubstitution": "algorithm",
    "HomographMatcher": "algorithm",
    "MatchResult": "algorithm",
    "fold_label": "algorithm",
    "DetectionReport": "report",
    "HomographDetection": "report",
    "HomographReverter": "revert",
    "RevertedDomain": "revert",
    "IndexKey": "index",
    "MmapPreparedReferences": "index",
    "MmapSkeletonIndex": "index",
    "ReferenceIndex": "index",
    "ReferenceIndexStore": "index",
    "build_reference_index": "index",
    "cached_reference_index": "index",
    "OnlineDetector": "service",
    "QueryVerdict": "service",
    "DetectionTiming": "shamfinder",
    "PreparedReferences": "shamfinder",
    "ShamFinder": "shamfinder",
    "CharacterClasses": "skeleton",
    "SkeletonIndex": "skeleton",
    "ScanCheckpoint": "stream",
    "ScanResumeError": "stream",
    "ScanStats": "stream",
    "SinkError": "stream",
    "StreamingScanner": "stream",
    "read_sink": "stream",
    "recover_sink": "stream",
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
