"""Point data of level-set rows with no chart, for the tests.

`level_set_data(row, p, q)` takes the normal and the shape operator of a
level-set row (a, S, squares) at points (p, q) (n, 4) from
`hypersurfaces._level_set`, writes the shape operator on a QR frame of the
normal's g-complement (`complement_frame`) and builds the point data from
`hypersurfaces._apparatus`, the code `analyze_points` takes its pointwise
fields from.  Each point lies on its own level set of F.
"""

import numpy as np

from nks3 import frames
from nks3 import hypersurfaces as hs

T = frames.get_tables()


def complement_frame(t, vectors):
    """A g-orthonormal basis (n, 6 - k, 6) of the g-complement of the frame
    vectors (n, k, 6): in the Euclidean coordinates L^T x, g = L L^T, the
    last 6 - k columns of the QR factor of [vectors, e0, ..., e(5 - k)]."""
    n, k = vectors.shape[:2]
    low = np.linalg.cholesky(t.g)
    cols = np.concatenate([vectors.swapaxes(-1, -2),
                           np.broadcast_to(np.eye(6)[:, :6 - k], (n, 6, 6 - k))], axis=-1)
    q = np.linalg.qr(low.T @ cols)[0]
    return np.swapaxes(np.linalg.solve(low.T, q[..., k:]), -1, -2)


def level_set_data(row, p, q) -> hs.HypersurfacePointData:
    """The point data (n rows, no chart) of the level sets of the row
    (a, S, squares) through the points (p, q) (n, 4)."""
    xi, weingarten = hs._level_set(row, p, q, hessian=True)
    frame = complement_frame(T, xi[:, None, :])
    A = frame @ weingarten @ frame.swapaxes(-1, -2)
    return hs.HypersurfacePointData(None, None, p, q, None, frame, None,
                                    *hs._apparatus(xi, A, frame))
