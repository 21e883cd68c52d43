"""Numerical Morse theory for the norm-square of a moment map on quiver
representation varieties: flow integration, critical-point classification,
stratum labeling, flow-line spaces, and closed-form retraction scenes.

Each public name is imported from the module that defines it and lists it
in its ``__all__``, e.g. ``from quiverflow.flow import integrate_many``;
importing the package itself loads no submodule."""

__version__ = "0.1.0"
