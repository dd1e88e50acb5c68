"""The K^2 kernel of a spectral pair, in NumPy.

One call evaluates many vectors at many t. BACKEND names the kernel in
run records; there is only the NumPy one.
"""
import numpy as np

BACKEND = "reference"

# cap the broadcast buffer at ~8M doubles: max_panels has no upper bound,
# so one call can see 2^20 + 1 nodes x 2048 modes (~16 GiB unchunked)
_CHUNK = 8 * 1024 * 1024


def k2_batch(lam, c2, ts):
    """K(u,t)^2 for a spectral pair at many t, for one or many vectors.

    lam: eigenvalues (m,), c2: squared coefficients (m,) or (m, q), ts: (p,).
    Returns (p,) or (p, q): sum_j ts^2 lam_j^2 c2[j] / (1 + ts^2 lam_j^2).
    """
    lam = np.asarray(lam, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    m = lam.shape[0]
    out = np.empty(ts.shape + c2.shape[1:], dtype=np.float64)
    step = max(1, _CHUNK // max(m, 1))
    lam2 = lam * lam
    for lo in range(0, ts.shape[0], step):
        t2 = ts[lo : lo + step, None] ** 2
        w = t2 * lam2[None, :]
        out[lo : lo + step] = (w / (1.0 + w)) @ c2
    return out
