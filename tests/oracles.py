"""Dense matrix exponential: the independent oracle that the evolution tests
compare `evolve` against.  It is test code, kept apart from the package so
that no runtime path can route through it and check itself."""

import numpy as np

_PADE13_B = np.array(
    [
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ]
)


def matrix_exp(mat):
    """Dense matrix exponential via 13/13 Pade with scaling and squaring."""
    a = np.asarray(mat, dtype=complex)
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    theta13 = 5.371920351148152
    s = 0 if norm <= theta13 else int(np.ceil(np.log2(norm / theta13)))
    a = a / (2.0 ** s)
    b = _PADE13_B
    ident = np.eye(n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r
