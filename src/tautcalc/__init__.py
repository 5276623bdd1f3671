"""Exact calculators for twist actions on surface homology, norm-ball
polytope duality, sutured Euler characteristics, and interval holonomy."""

__version__ = "0.1.0"
