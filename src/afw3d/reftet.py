"""Reference tetrahedron: vertex coordinates and subsimplex index tables.

The reference element is the unit simplex with vertices at the origin and
the three coordinate unit vectors.  Faces are numbered by the opposite
vertex; edges follow the lexicographic order of their vertex pairs.  Every
module that talks about "local face i" or "local edge j" uses these tables.
"""

import numpy as np

VERTICES = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)

# face i is opposite vertex i; vertices listed in ascending local order
FACE_VERTS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

EDGE_VERTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# edges of face i, as indices into EDGE_VERTS
FACE_EDGES = tuple(
    tuple(
        j
        for j, e in enumerate(EDGE_VERTS)
        if set(e) <= set(fv)
    )
    for fv in FACE_VERTS
)
