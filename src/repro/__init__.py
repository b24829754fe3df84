"""ShamFinder reproduction: automated detection of IDN homographs.

The package reproduces the full system of the IMC 2019 paper "ShamFinder:
An Automated Framework for Detecting IDN Homographs": the SimChar homoglyph
database construction, the UC (Unicode confusables) database, the IDN
homograph detection algorithm, and the measurement/evaluation pipeline,
together with the substrates they need (Unicode properties, glyph
rendering, Punycode/IDNA, DNS, web classification, blacklists, language
identification, and a simulated human-perception study).

Quickstart::

    from repro import ShamFinder

    finder = ShamFinder.with_default_databases()
    report = finder.detect(["xn--ggle-55da.com"], reference=["google.com"])
    for detection in report:
        print(detection.describe())
"""

import importlib

#: Public name -> the module that defines it, imported on first use of the
#: name (PEP 562): ``import repro.cli`` loads only what the CLI imports.
_EXPORTS = {
    "DetectionReport": "detection.report",
    "HomographDetection": "detection.report",
    "ShamFinder": "detection.shamfinder",
    "load_confusables": "homoglyph.confusables",
    "HomoglyphDatabase": "homoglyph.database",
    "HomoglyphPair": "homoglyph.database",
    "SimCharBuilder": "homoglyph.simchar",
    "SimCharCache": "homoglyph.cache",
    "cached_build": "homoglyph.cache",
    "DomainName": "idn.domain",
}

__version__ = "1.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
