"""One-class SVM in the nu formulation; support vectors give the undersample.

Solves min 1/2 a'Ka subject to 0 <= a_i <= C = 1/(nu n), sum a_i = 1 with
solve_pairwise, the most-violating-pair solver (Platt's SMO) that also fits
the linear SVM in classifiers. It never inverts K, so the indefinite sigmoid
kernel is tolerated; a stall flag guards non-convergence.

Only the rbf one-class fit starts warm, where LIBSVM's one-class solver
does: a_i = C on the floor(nu n) rows with the smallest (K 1/n)_i, the most
outlying ones, and the rest of the unit sum on the next row. From the uniform
start a = 1/n every alpha that ends at 0 has to fall in a sweep of its own, so
that start takes at least (1 - nu) n sweeps; the warm one takes tens (45
instead of 3,257 on a 6,480-row fit) and keeps the same support set up to rows
that sit on the margin within GAP_TOL. Linear and sigmoid one-class fits keep
the uniform start. A linear kernel has rank <= d, so its optimal alpha is not
unique and the support set depends on the start; the sigmoid kernel is
indefinite, and a warm start ends at another point.

Up to DENSE_KERNEL_BYTES (8 n^2 <= 64 MiB, n <= 2896) the fit holds one dense
n x n float64 kernel and nothing else of that size. Above it the fit holds no
n x n array: it evaluates K a in blocks of at most KERNEL_BLOCK_BYTES (and
ROW_BLOCK rows), then only rows i and j in each sweep. Blocks and rows are
written in place into one buffer of one block's size, so that block is the
largest array the fit holds; decision_function scores in blocks the same
way. There is no row cache: a cold-started fit reads almost every row once,
and a warm-started one reads two rows in each of a few dozen sweeps.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data_model import apply_preprocess, fit_preprocess
from .errors import SchemaMismatch, SolverStallWarning
from .gan import VANILLA, encode_rows

SIGMOID = "sigmoid"
RBF = "rbf"
LINEAR = "linear"
KERNEL_KINDS = (SIGMOID, RBF, LINEAR)

SV_TOL = 1e-8
GAP_TOL = 1e-6
MAX_SWEEPS = 100_000
ROW_BLOCK = 256  # rows per mirrored block in kernel_matrix, and most per streamed block
_SUM_ROWS = 16  # rows per rbf scratch sum aa_i + bb_j in kernel_matrix
DENSE_KERNEL_BYTES = 64 * 2**20  # larger kernels are streamed, never held
KERNEL_BLOCK_BYTES = 16 * 2**20  # most bytes of the one reused streamed-block buffer


@dataclass(frozen=True)
class KernelSpec:
    kind: str = SIGMOID
    gamma: float = 1.0
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kind!r}")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")


def kernel_matrix(spec, A, B=None, norms=None, out=None):
    """The len(A) x len(B) kernel, built in place in one float64 array.

    out, if given, is a C-contiguous len(A) x len(B) float64 array that the
    kernel is written into and that is returned; otherwise one is
    allocated. Beyond the result, the rbf path allocates one _SUM_ROWS x
    len(B) scratch array. kernel_matrix(spec, A) is exactly symmetric, so a
    row of it can stand for the column. norms, if given, is the pair of
    squared row norms of A and B, which only rbf reads.
    """
    symmetric = B is None
    B = A if symmetric else B
    if spec.kind == LINEAR:
        # numpy runs A @ A.T as syrk, which writes both triangles alike
        return np.matmul(A, B.T, out=out)
    if spec.kind == SIGMOID:
        K = np.matmul(A, B.T, out=out)
        K *= spec.gamma
        K += spec.coef0
        return np.tanh(K, out=K)
    # (2A)B' rather than 2(AB'): AB' with B = A may run as syrk, whose
    # rounding differs from gemm's
    K = np.matmul(2 * A, B.T, out=out)
    if norms is None:
        aa = (A * A).sum(axis=1)
        bb = aa if symmetric else (B * B).sum(axis=1)
    else:
        aa, bb = norms
    n, m = K.shape
    scratch = np.empty((min(_SUM_ROWS, n), m))
    for start in range(0, n, _SUM_ROWS):
        stop = min(start + _SUM_ROWS, n)
        first = start if symmetric else 0
        part = K[start:stop, first:]
        # each entry is (aa_i + bb_j) - 2ab_ij, rounded as written
        np.subtract(np.add(aa[start:stop, None], bb[None, first:],
                           out=scratch[:stop - start, first:]), part, out=part)
        np.maximum(part, 0.0, out=part)
        part *= -spec.gamma
        np.exp(part, out=part)
    if symmetric:
        # gemm can round (i, j) and (j, i) differently, so the lower
        # triangle is copied from the upper one rather than computed
        for start in range(0, n, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, n)
            for left in range(0, start, ROW_BLOCK):
                K[start:stop, left:left + ROW_BLOCK] = \
                    K[left:left + ROW_BLOCK, start:stop].T
            for r in range(start + 1, stop):  # the diagonal block, row by row
                K[r, start:r] = K[start:r, r]
    return K


@dataclass
class OcsvmModel:
    alpha: np.ndarray
    rho: float
    kernel: KernelSpec
    nu: float
    X: np.ndarray  # training rows in encoded space
    support_indices: np.ndarray
    stalled: bool = False
    objective_history: list = field(default_factory=list)

    def to_dict(self):
        return {
            "format": "fingan-ocsvm-v1",
            "alpha": self.alpha.tolist(),
            "rho": self.rho,
            "kernel": {"kind": self.kernel.kind, "gamma": self.kernel.gamma,
                       "coef0": self.kernel.coef0},
            "nu": self.nu,
            "support_indices": self.support_indices.tolist(),
        }


def _kernel_operator(kernel, X):
    """(matvec, rows): matvec(alpha) -> K alpha, and rows(i, j) -> rows i and j of K.

    Up to DENSE_KERNEL_BYTES, K is built once and both read it. Above it,
    nothing n x n is held and matvec evaluates K's upper part in blocks of
    ROW_BLOCK rows, fewer if a block of n columns would pass
    KERNEL_BLOCK_BYTES. Each block, K[s:e, s:], is evaluated once and feeds
    both g[s:e] and, transposed as K[e:, s:e], g[e:]. rows(i, j) evaluates the
    two rows it is asked for; they stay valid until the next call. Blocks and
    rows are written in place into one buffer of one block's size.
    """
    n = X.shape[0]
    if 8 * n * n <= DENSE_KERNEL_BYTES:
        K = kernel_matrix(kernel, X)
        # K is symmetric, so rows i and j are columns i and j, read contiguously
        return (lambda alpha: K @ alpha), (lambda i, j: (K[i], K[j]))
    sq = (X * X).sum(axis=1)
    step = min(ROW_BLOCK, max(1, KERNEL_BLOCK_BYTES // (8 * n)))
    # every block, and each sweep's two rows, is a contiguous view of buf:
    # matmul into a strided slice of a 2-D buffer computes into a copy
    buf = np.empty(max(step, 2) * n)

    def matvec(alpha):
        g = np.zeros(n)
        for s in range(0, n, step):
            e = min(s + step, n)
            upper = kernel_matrix(kernel, X[s:e], X[s:], norms=(sq[s:e], sq[s:]),
                                  out=buf[:(e - s) * (n - s)].reshape(e - s, n - s))
            g[s:e] += upper @ alpha[s:]
            g[e:] += alpha[s:e] @ upper[:, e - s:]
        return g

    def rows(i, j):
        pair = [i, j]
        return kernel_matrix(kernel, X[pair], X, norms=(sq[pair], sq),
                             out=buf[:2 * n].reshape(2, n))

    return matvec, rows


def _warm_start(g0, nu, C):
    """alpha = C on the floor(nu n) rows with the smallest g0 = K 1/n, the
    most outlying ones, and the rest of the unit sum, unless it is below
    1e-15, on the next row."""
    n = len(g0)
    k = int(nu * n)
    order = np.argsort(g0, kind="stable")
    alpha = np.zeros(n)
    alpha[order[:k]] = C
    # not 1 - k C: for a denormal nu n, C is inf and 0 C is nan
    rest = 1.0 - k / (nu * n)
    if k < n and rest > 1e-15:
        alpha[order[k]] = rest
    return alpha


def solve_pairwise(beta, g, lo, hi, rows, obj):
    """Minimize 1/2 b'Kb + p'b over lo <= b <= hi with sum(b) fixed, from a
    feasible beta with g = K beta + p and objective obj; beta and g change in
    place. Each sweep moves the most violating pair i, j (rows(i, j) gives
    K's rows) to its line minimum within the bounds, until the gap is below
    GAP_TOL, or warns SolverStallWarning after MAX_SWEEPS sweeps.

    Returns the objective before and after each sweep, the stall flag and
    the multiplier of the sum: g's mean over the rows inside their bounds by
    SV_TOL, else the midpoint of the optimality interval.
    """
    history = [obj]
    # added to g before the arg-min (max): 0 where beta can rise (fall),
    # +inf (-inf) where it sits at its bound; only beta_i and beta_j move
    up = np.where(beta < hi - 1e-15, 0.0, np.inf)
    down = np.where(beta > lo + 1e-15, 0.0, -np.inf)
    masked = np.empty(len(beta))

    stalled = False
    while True:
        i = int(np.argmin(np.add(g, up, out=masked)))
        j = int(np.argmax(np.add(g, down, out=masked)))
        if up[i] or down[j]:  # no beta can rise, or none can fall
            break
        gap = g[j] - g[i]
        if gap < GAP_TOL:
            break
        if len(history) > MAX_SWEEPS:  # this is sweep len(history)
            stalled = True
            warnings.warn(f"pairwise solver hit {MAX_SWEEPS} sweeps with gap {gap:.3g}",
                          SolverStallWarning)
            break
        lam_max = min(hi[i] - beta[i], beta[j] - lo[j])
        K_i, K_j = rows(i, j)
        d = K_i[i] + K_j[j] - 2 * K_i[j]
        if d > 1e-15:
            lam = min(gap / d, lam_max)
        else:
            # flat or concave direction: endpoint with lower objective
            delta_at_max = -lam_max * gap + 0.5 * lam_max**2 * d
            lam = lam_max if delta_at_max < 0 else 0.0
        if lam <= 0:
            break
        beta[i] += lam
        beta[j] -= lam
        for k in (i, j):
            up[k] = 0.0 if beta[k] < hi[k] - 1e-15 else np.inf
            down[k] = 0.0 if beta[k] > lo[k] + 1e-15 else -np.inf
        g += lam * (K_i - K_j)
        obj += -lam * gap + 0.5 * lam * lam * d
        history.append(obj)

    free = (beta > lo + SV_TOL) & (beta < hi - SV_TOL)
    if free.any():
        return history, stalled, float(g[free].mean())
    # fall back to the midpoint of the optimality interval
    can_fall, can_rise = beta > lo + 1e-15, beta < hi - 1e-15
    low = g[can_fall].max() if can_fall.any() else g.max()
    high = g[can_rise].min() if can_rise.any() else g.min()
    return history, stalled, float((low + high) / 2)


def fit_ocsvm(X, nu, kernel):
    """Fit on encoded rows (one row per majority sample).

    The model keeps X itself, not a copy.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 0 < nu <= 1:
        raise ValueError("nu must lie in (0, 1]")
    if n < 2:
        raise ValueError("need at least 2 rows")

    C = 1.0 / (nu * n)
    matvec, rows = _kernel_operator(kernel, X)
    alpha = np.full(n, 1.0 / n)  # feasible: 1/n <= C
    g = matvec(alpha)  # gradient of 1/2 a'Ka
    if kernel.kind == RBF:
        alpha = _warm_start(g, nu, C)
        g = matvec(alpha)
    history, stalled, rho = solve_pairwise(alpha, g, np.zeros(n), np.full(n, C), rows,
                                           0.5 * float(alpha @ g))
    support = np.flatnonzero(alpha > SV_TOL)
    return OcsvmModel(alpha, rho, kernel, nu, X, support, stalled, history)


def decision_function(model, rows):
    """Score rows; >= 0 means inside the learned region.

    The support-vector kernel is evaluated a block of columns at a time in
    one buffer of at most KERNEL_BLOCK_BYTES (at least 8 columns), each block
    a multiple of 8 columns wide but the last. With one BLAS thread and a
    multiple of 8 rows the scores are then the one-shot product's bit for
    bit: gemm and gemv round a ragged tail of columns apart.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != model.X.shape[1]:
        raise SchemaMismatch(
            f"row width {rows.shape[1]} != training width {model.X.shape[1]}")
    sv = model.support_indices
    A, weights = model.X[sv], model.alpha[sv]
    m = rows.shape[0]
    width = max(8, KERNEL_BLOCK_BYTES // (8 * len(sv)) // 8 * 8)
    buf = np.empty(len(sv) * min(width, m))
    scores = np.empty(m)
    for s in range(0, m, width):
        e = min(s + width, m)
        block = kernel_matrix(model.kernel, A, rows[s:e],
                              out=buf[:len(sv) * (e - s)].reshape(len(sv), e - s))
        scores[s:e] = weights @ block
    return scores - model.rho


def default_gamma(dim):
    return 1.0 / dim


def encode_for_kernel(table, params):
    """One-hot categoricals + standardized numerics, as kernel and classifier
    inputs: the GAN encoding with every numeric range (0, 1), under which
    (x - 0) / (1 - 0) keeps each standardized value bit for bit."""
    numeric = dict.fromkeys(table.schema.numeric_indices, (0.0, 1.0))
    return encode_rows(apply_preprocess(table, params), VANILLA, numeric)


def undersample_majority(train, nu, kind=SIGMOID, gamma="auto", coef0=0.0, params=None):
    """Keep only the majority rows that are support vectors.

    The kernel is ``KernelSpec(kind, gamma, coef0)``; gamma "auto" is
    default_gamma of the encoded width. Returns (majority subset Table,
    fitted OcsvmModel). Minority rows are untouched; merging is the
    pipeline's job.
    """
    majority = train.negatives()
    if majority.n_rows == 0 or train.n_positive == 0:
        raise ValueError("train must contain both classes")
    if params is None:
        params = fit_preprocess(majority)
    X = encode_for_kernel(majority, params)
    if gamma == "auto":
        gamma = default_gamma(X.shape[1])
    model = fit_ocsvm(X, nu, KernelSpec(kind, float(gamma), coef0))
    kept = majority.subset(model.support_indices)
    return kept, model
