"""Learning-free MoE compression from the topology of KL merge barriers.

Build a simplicial 2-complex over a layer's experts (edges carry pairwise
merge barriers, triangles carry triplet barriers), Hodge-decompose the
edge signal, and select survivors by greedy coverage of the
harmonic-critical edges and triplet-critical triangles.
"""

__version__ = "0.1.0"
