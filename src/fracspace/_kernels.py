"""The K^2 kernel of a spectral pair, in NumPy.

One call evaluates many vectors at many t, with a (len(ts), len(lam))
buffer; the caller bounds it (`interp_norms_sq` passes its nodes in
blocks). BACKEND names the kernel in run records; there is only the
NumPy one.
"""
import numpy as np

BACKEND = "reference"


def k2_batch(lam, c2, ts):
    """K(u,t)^2 for a spectral pair at many t, for one or many vectors.

    lam: eigenvalues (m,), c2: squared coefficients (m,) or (m, q), ts: (p,).
    Returns (p,) or (p, q): sum_j ts^2 lam_j^2 c2[j] / (1 + ts^2 lam_j^2).
    """
    lam = np.asarray(lam, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    w = ts[:, None] ** 2 * (lam * lam)[None, :]
    np.divide(w, 1.0 + w, out=w)  # in place: one (p, m) temporary fewer
    return w @ c2
