"""IDN substrate: Punycode, IDNA label conversion, domain model, TLD policies."""

import importlib

#: Public name -> the submodule that defines it.  A submodule is imported on
#: first use of one of its names (PEP 562), so importing one part of the
#: package does not import the rest.
_EXPORTS = {
    "punycode": "punycode",
    "DomainName": "domain",
    "ACE_PREFIX": "idna_codec",
    "IDNAError": "idna_codec",
    "decode_domain": "idna_codec",
    "encode_domain": "idna_codec",
    "is_ace_label": "idna_codec",
    "to_ascii_label": "idna_codec",
    "to_unicode_label": "idna_codec",
    "validate_ulabel": "idna_codec",
    "IDNTable": "tld",
    "REGISTRY_POLICIES": "tld",
    "policy_for": "tld",
    "register_policy": "tld",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{submodule}", __name__)
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
