"""Exact-arithmetic toolkit for open topological recursion relations in genus <= 1."""
