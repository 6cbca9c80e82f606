"""Skew perspectives between two tetrahedra.

A perspective with a skewed axis glues two complete quadrangles (the point
sets A and B), a center p and a Veblen configuration on six axis points into
a partial Steiner triple system with 15 points of degree 4 and 20 lines of
size 3.  This package constructs every such structure, decides isomorphism
both by family-specific algebraic criteria and by a generic canonical-form
oracle, partitions the two families into isomorphism classes and audits the
published classification against the computed one.

Subpackage map:

    indices      index set {1,2,3,4}, unordered pairs, permutation algebra
    psts         partial Steiner triple systems, free complete subgraphs
    veblen       Veblen (Pasch) configurations labeled by the six pairs
    perspective  construction of the two perspective families, their criteria
    iso          canonical forms, isomorphism search
    classify     family enumeration, class partition, claim audit
    cli          command line front end
"""

__version__ = "0.1.0"
