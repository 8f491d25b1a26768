"""Symbolic workbench for equations over groups.

Backends with exact arithmetic, free-product word algebra, equation
classification and normal forms, generalized-equation coset rewriting,
unique-product checks and witness search, proper-power detection, and a
finite brute-force solver.  Each name is imported from the module that
defines it; the package root re-exports none.
"""
