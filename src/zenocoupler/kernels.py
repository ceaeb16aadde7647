"""Hot kernel: apply the three-mode generator to a Fock-basis state.

out = (neg_k a b1^ + conj(neg_k) a^ b1 + neg_g b1^2 b2^ + conj(neg_g) b1^^2 b2) x

where x and out are C-contiguous (n_a, n_b1, n_b2) amplitude grids,
neg_k = -k and neg_g = -gamma_nl * exp(i dk z).  Square-root occupation
tables are precomputed by the caller:

    sa[n] = sqrt(n) over mode a, s1/s2 likewise, w1[j] = sqrt((j+1)(j+2)).
"""

import numpy as np

KERNEL_BACKEND = "python"


def apply_generator(x, out, neg_k, neg_g, sa, s1, s2, w1):
    out[:] = 0
    # -k a b1^: target (na, n1) fed from (na+1, n1-1)
    out[:-1, 1:, :] += (
        neg_k * sa[1:, None, None] * s1[None, 1:, None] * x[1:, :-1, :]
    )
    # -k* a^ b1: target (na, n1) fed from (na-1, n1+1)
    out[1:, :-1, :] += (
        np.conj(neg_k) * sa[1:, None, None] * s1[None, 1:, None] * x[:-1, 1:, :]
    )
    # -g b1^2 b2^: target (n1, n2) fed from (n1+2, n2-1)
    out[:, :-2, 1:] += (
        neg_g * w1[None, :-2, None] * s2[None, None, 1:] * x[:, 2:, :-1]
    )
    # -g* b1^^2 b2: target (n1, n2) fed from (n1-2, n2+1)
    out[:, 2:, :-1] += (
        np.conj(neg_g) * w1[None, :-2, None] * s2[None, None, 1:] * x[:, :-2, 1:]
    )
    return out


__all__ = ["apply_generator", "KERNEL_BACKEND"]
