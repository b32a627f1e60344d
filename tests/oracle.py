"""The codec's summation order written out with Python floats, sharing no code with aebound."""

import numpy as np


def ordered_matvec(w, v) -> np.ndarray:
    """`w @ v` for one vector v: output i is w[i][0]*v[0], then + w[i][j]*v[j] for j = 1 ... n-1.

    Each product and each sum is one Python float operation, an IEEE double
    rounded once, taken term by term in that order.
    """
    v = np.asarray(v, dtype=np.float64).tolist()
    out = []
    for row in np.asarray(w, dtype=np.float64).tolist():
        acc = row[0] * v[0]
        for j in range(1, len(v)):
            acc += row[j] * v[j]
        out.append(acc)
    return np.array(out)
