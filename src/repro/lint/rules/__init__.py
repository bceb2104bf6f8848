"""GUARDRAIL rule modules.  Importing this package registers every rule."""

from . import determinism, engine_private, exceptions, figure3, layering, probes  # noqa: F401

__all__ = ["determinism", "engine_private", "exceptions", "figure3", "layering", "probes"]
