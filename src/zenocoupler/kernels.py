"""Hot kernel: apply the three-mode generator to a Fock-basis state.

The generator is stored as a ladder table in ELL layout (a padded sparse
row format): every basis state (n_a, n_b1, n_b2), flattened row-major, has
exactly five entries, one per term

    N_b2,  a b1^,  a^ b1,  b1^2 b2^,  b1^^2 b2

in that order.  Entry j of row i holds the column cols[i, j] that the term
feeds row i from and its real square-root occupation factor mags[i, j];
a term that leaves the truncated basis is padded with mags = 0 (and the
row's own column).  The table depends only on the truncation shape.  A
caller multiplies in one complex coefficient per term (couplings, a
Taylor factor), vals = mags * term_coefficients(...), so that

    out = sum_j vals[:, j] * x[cols[:, j]]

with x and out C-contiguous (n_a, n_b1, n_b2) amplitude grids.
"""

import numpy as np

KERNEL_BACKEND = "python"


def generator_table(shape):
    """(cols, mags) of the ladder table for cutoff grid `shape` = (da, d1, d2)."""
    da, d1, d2 = shape
    na, n1, n2 = (g.ravel() for g in np.indices(shape))
    rows = np.arange(da * d1 * d2)
    cols = np.repeat(rows[:, None], 5, axis=1)
    mags = np.zeros(cols.shape)
    mags[:, 0] = n2

    def feed(j, dna, dn1, dn2, mag):
        # term j feeds row (na, n1, n2) from (na + dna, n1 + dn1, n2 + dn2)
        src = (na + dna, n1 + dn1, n2 + dn2)
        ok = ((src[0] >= 0) & (src[0] < da) & (src[1] >= 0) & (src[1] < d1)
              & (src[2] >= 0) & (src[2] < d2))
        cols[ok, j] = np.ravel_multi_index(tuple(s[ok] for s in src), shape)
        mags[ok, j] = mag[ok]

    feed(1, 1, -1, 0, np.sqrt((na + 1.0) * n1))
    feed(2, -1, 1, 0, np.sqrt(na * (n1 + 1.0)))
    feed(3, 0, 2, -1, np.sqrt((n1 + 1.0) * (n1 + 2.0) * n2))
    feed(4, 0, -2, 1, np.sqrt(n1 * (n1 - 1.0) * (n2 + 1.0)))
    return cols, mags


def term_coefficients(c_n, c_ab, c_bb):
    """Coefficients, in table order, of the operator
    c_n N_b2 + (c_ab a b1^ + c_bb b1^2 b2^ + H.c.), c_n real."""
    return np.array([c_n, c_ab, np.conj(c_ab), c_bb, np.conj(c_bb)])


def apply_generator(x, out, cols, vals):
    """out <- the table (cols, vals) applied to the grid x; returns out."""
    np.einsum("ij,ij->i", vals, x.reshape(-1)[cols], out=out.reshape(-1))
    return out


__all__ = ["apply_generator", "generator_table", "term_coefficients", "KERNEL_BACKEND"]
