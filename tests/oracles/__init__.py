"""Reference implementations kept only as test oracles.

Each module here is a straightforward (slower) implementation that a
production path replaced; differential tests check the production path
against it.
"""
