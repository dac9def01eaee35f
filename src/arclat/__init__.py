"""Executable lattice combinatorics for permutations and signed permutations:
noncrossing arc diagrams, subarc forcing, congruences and quotients of the
weak order, with lattice-theoretic and geometric cross-checks.

The modules are the API (``from arclat import forcing``); importing the
package itself loads none of them."""

__version__ = "0.1.0"
