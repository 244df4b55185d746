"""Exact integer calculus of transfers for G-bornological coarse spaces.

Layers: finite groups and G-sets (groups), coarse spaces and their
constructions (spaces, tape), bounded coverings and the span category
of transfers (spans), chain-level equivariant coarse ordinary homology
(homology, snf), and the finite-group Mackey layer with assembly maps
(mackey).  The cli module exposes the batch front end.
"""

__version__ = "0.1.0"
