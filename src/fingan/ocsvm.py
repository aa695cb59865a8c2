"""One-class SVM in the nu formulation; support vectors give the undersample.

Solves min 1/2 a'Ka subject to 0 <= a_i <= 1/(nu n), sum a_i = 1 by pairwise
most-violating coordinate transfers. The solver never inverts K, so the
indefinite sigmoid kernel is tolerated; a stall flag guards non-convergence.

Up to DENSE_KERNEL_BYTES (8 n^2 <= 64 MiB, n <= 2896) the fit holds one dense
n x n float64 kernel and nothing else of that size. Above it the fit holds no
n x n array: it builds the gradient from ROW_BLOCK-row blocks of the kernel's
upper part, then evaluates only rows i and j in each sweep. There is no row
cache: on a 6.5k-row fit the solver reads almost every row once.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data_model import concat_tables
from .errors import SchemaMismatch, SolverStallWarning
from .gan import _layout_blocks, encode_categoricals

SIGMOID = "sigmoid"
RBF = "rbf"
LINEAR = "linear"
KERNEL_KINDS = (SIGMOID, RBF, LINEAR)

SV_TOL = 1e-8
GAP_TOL = 1e-6
MAX_SWEEPS = 100_000
ROW_BLOCK = 256  # rows per temporary in kernel_matrix and per streamed block
DENSE_KERNEL_BYTES = 64 * 2**20  # larger kernels are streamed, never held


@dataclass(frozen=True)
class KernelSpec:
    kind: str = SIGMOID
    gamma: float = 1.0
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kind!r}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")


def kernel_matrix(spec, A, B=None, norms=None):
    """The len(A) x len(B) kernel, built in place in one float64 array.

    Beyond the result, the rbf path allocates one ROW_BLOCK x len(B)
    temporary at a time. kernel_matrix(spec, A) is exactly symmetric, so a
    row of it can stand for the column. norms, if given, is the pair of
    squared row norms of A and B, which only rbf reads.
    """
    symmetric = B is None
    B = A if symmetric else B
    if spec.kind == LINEAR:
        return A @ B.T  # numpy runs A @ A.T as syrk, which writes both triangles alike
    if spec.kind == SIGMOID:
        K = A @ B.T
        K *= spec.gamma
        K += spec.coef0
        return np.tanh(K, out=K)
    # (2A)B' rather than 2(AB'): AB' with B = A may run as syrk, whose
    # rounding differs from gemm's
    K = (2 * A) @ B.T
    np.negative(K, out=K)
    if norms is None:
        aa = (A * A).sum(axis=1)
        bb = aa if symmetric else (B * B).sum(axis=1)
    else:
        aa, bb = norms
    n = K.shape[0]
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        first = start if symmetric else 0
        part = K[start:stop, first:]
        # each entry is (aa_i + bb_j) - 2ab_ij, rounded as written
        part += aa[start:stop, None] + bb[None, first:]
        np.maximum(part, 0.0, out=part)
        part *= -spec.gamma
        np.exp(part, out=part)
        if symmetric:
            # gemm can round (i, j) and (j, i) differently, so the lower
            # triangle is copied from the upper one rather than computed
            for left in range(0, start, ROW_BLOCK):
                K[start:stop, left:left + ROW_BLOCK] = \
                    K[left:left + ROW_BLOCK, start:stop].T
            diag = K[start:stop, start:stop]
            lower = np.tril_indices(stop - start, -1)
            diag[lower] = diag.T[lower]
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


def _gradient_and_rows(kernel, X, alpha):
    """(g, rows): the gradient g = K alpha, and rows(i, j) -> rows i and j of K.

    Up to DENSE_KERNEL_BYTES, K is built once and rows are views of it.
    Above it, each ROW_BLOCK-row block of K's upper part, K[s:e, s:], is
    evaluated once and feeds both g[s:e] and, transposed as K[e:, s:e],
    g[e:]; rows(i, j) then evaluates the two rows it is asked for.
    """
    n = X.shape[0]
    if 8 * n * n <= DENSE_KERNEL_BYTES:
        K = kernel_matrix(kernel, X)
        # K is symmetric, so rows i and j are columns i and j, read contiguously
        return K @ alpha, lambda i, j: (K[i], K[j])
    sq = (X * X).sum(axis=1)
    g = np.zeros(n)
    for s in range(0, n, ROW_BLOCK):
        e = min(s + ROW_BLOCK, n)
        upper = kernel_matrix(kernel, X[s:e], X[s:], norms=(sq[s:e], sq[s:]))
        g[s:e] += upper @ alpha[s:]
        g[e:] += alpha[s:e] @ upper[:, e - s:]

    def rows(i, j):
        pair = [i, j]
        K_pair = kernel_matrix(kernel, X[pair], X, norms=(sq[pair], sq))
        return K_pair[0], K_pair[1]

    return g, rows


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
    alpha = np.full(n, 1.0 / n)  # feasible: 1/n <= C
    g, rows = _gradient_and_rows(kernel, X, alpha)  # gradient of 1/2 a'Ka
    obj = 0.5 * float(alpha @ g)
    history = [obj]
    # added to g before the arg-min (max): 0 where alpha can rise (fall),
    # +inf (-inf) where it sits at its bound; only alpha_i and alpha_j move
    up = np.where(alpha < C - 1e-15, 0.0, np.inf)
    down = np.where(alpha > 1e-15, 0.0, -np.inf)
    masked = np.empty(n)

    stalled = False
    sweeps = 0
    while True:
        sweeps += 1
        i = int(np.argmin(np.add(g, up, out=masked)))
        j = int(np.argmax(np.add(g, down, out=masked)))
        if up[i] or down[j]:  # no alpha can rise, or none can fall
            break
        gap = g[j] - g[i]
        if gap < GAP_TOL:
            break
        if sweeps > MAX_SWEEPS:
            stalled = True
            warnings.warn(
                f"pairwise solver hit {MAX_SWEEPS} sweeps with gap {gap:.3g}",
                SolverStallWarning,
            )
            break
        lam_max = min(C - alpha[i], alpha[j])
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
        alpha[i] += lam
        alpha[j] -= lam
        for k in (i, j):
            up[k] = 0.0 if alpha[k] < C - 1e-15 else np.inf
            down[k] = 0.0 if alpha[k] > 1e-15 else -np.inf
        g += lam * (K_i - K_j)
        obj += -lam * gap + 0.5 * lam * lam * d
        history.append(obj)

    support = np.flatnonzero(alpha > SV_TOL)
    margin = np.flatnonzero((alpha > SV_TOL) & (alpha < C - SV_TOL))
    if len(margin):
        rho = float(g[margin].mean())
    else:
        # fall back to the midpoint of the optimality interval
        lo = g[alpha > 1e-15].max() if (alpha > 1e-15).any() else g.max()
        hi = g[alpha < C - 1e-15].min() if (alpha < C - 1e-15).any() else g.min()
        rho = float((lo + hi) / 2)
    return OcsvmModel(alpha, rho, kernel, nu, X, support, stalled, history)


def decision_function(model, rows):
    """Score rows; >= 0 means inside the learned region."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != model.X.shape[1]:
        raise SchemaMismatch(
            f"row width {rows.shape[1]} != training width {model.X.shape[1]}")
    sv = model.support_indices
    Ksv = kernel_matrix(model.kernel, model.X[sv], rows)
    return model.alpha[sv] @ Ksv - model.rho


def default_gamma(dim):
    return 1.0 / dim


def encode_for_kernel(table, params):
    """One-hot categoricals + standardized numerics, as kernel and classifier
    inputs. The blocks are the GAN encoding's, which depend on the schema
    only; the numeric block keeps the standardized values."""
    from .data_model import apply_preprocess

    std = apply_preprocess(table, params, "forward")
    blocks = _layout_blocks(table.schema)
    width = sum(b.width for b in blocks)
    out = encode_categoricals(std, blocks, width)
    numeric = table.schema.numeric_indices
    out[:, width - len(numeric):] = std.X[:, numeric]
    return out


def undersample_majority(train, nu, kind=SIGMOID, gamma="auto", coef0=0.0, params=None):
    """Keep only the majority rows that are support vectors.

    The kernel is ``KernelSpec(kind, gamma, coef0)``; gamma "auto" is
    default_gamma of the encoded width. Returns (majority subset Table,
    fitted OcsvmModel). Minority rows are untouched; merging is the
    pipeline's job.
    """
    from .data_model import fit_preprocess

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
