"""Mean predictors for E[c|z] and residual-magnitude quantile predictors.

Every model here, and density_ratio's classifier, has one shape: an output
layer out = X @ W + b over X = Z (ridge, linear quantile regression,
linear logistic) or over one tanh hidden layer of 16 units (the MLPs),
with one forward pass (_forward) and one output-layer gradient; only an
MLP backpropagates on to W1 and b1. The mean MLP trains with full-batch
Adam and the linear width with subgradient descent (_fit_gradient). The
smooth losses train with L-BFGS (_fit_lbfgs): the logistic loss of both
classifiers, linear and MLP, and the width MLP's pinball loss smoothed by
a logistic kernel, fitted to |r| in units of each column's sd and floored
at a fifth of it. Both smooth losses take their softplus as max(t, 0) +
log1p(e^-|t|) (_softplus): numpy vectorises exp and log1p but not
logaddexp, whose scalar loop would be the largest cost of either loss.
Both optimizers see the same flat objective (_flat_objective): the
parameters as one vector, and a pass that prices it with one loss_and_grad
call, which forms each kind's loss and output gradient in one branch and
writes each parameter's gradient into views of a flat vector that the fit
makes once (L-BFGS keeps two: a trial never overwrites the current one).
An MLP pass turns its hidden layer's block into tanh's slope 1 - H^2.
Every fitted mean or width model is a Predictor over its parameter dict.

The MLP's first layer takes its bias in the product [Z | 1] @ [W1; b1],
which OpenBLAS's gemm forms with the same bits as Z @ W1 + b1 (on two or
more rows), and faster than the broadcast add; a fit builds the design
[Z | 1] once. Column sums of two or more columns (_column_sums) run through
einsum; one column keeps sum(axis=0), which then adds pairwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, check_alpha, solve_spd

WIDTH_FLOOR = 1e-6
HIDDEN = 16             # MLP hidden units
ADAM_STEP = 0.01        # Adam learning rate (MLP mean fit)
SUBGRADIENT_STEP = 0.05  # initial step of the linear pinball fit
RIDGE_LAMBDA = 1e-6     # Gram-diagonal shift of the ridge mean fit
MEAN_EPOCHS = 500       # Adam epochs of the MLP mean fit
WIDTH_EPOCHS = 2000     # epochs of the linear width fit
WIDTH_ITERATIONS = 200  # L-BFGS iterations of the MLP width fit
WIDTH_BANDWIDTH = 0.02  # its smoothing bandwidth, in sd units of |r|
WIDTH_SD_FLOOR = 0.2    # its least width, in sd units of |r|
LBFGS_MEMORY = 10       # curvature pairs the L-BFGS fit keeps
ARMIJO_C1 = 1e-4        # its line search's sufficient-decrease constant
MAX_HALVINGS = 30       # step halvings before its line search gives up


@dataclass(frozen=True)
class Dataset:
    """Paired covariate/cost samples; cost block may be empty (test covariates)."""

    Z: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        C = np.asarray(self.C, dtype=float)
        if C.ndim == 1:
            C = C[:, None]
        if C.size == 0 and C.shape[0] != Z.shape[0]:
            C = C.reshape(Z.shape[0], 0)
        if Z.shape[0] != C.shape[0]:
            raise ValueError(f"row mismatch: {Z.shape[0]} covariates vs {C.shape[0]} costs")
        if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(C))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def d(self) -> int:
        return self.Z.shape[1]

    @property
    def n_cost(self) -> int:
        return self.C.shape[1]


def pinball(u, alpha: float):
    """Pinball loss rho_alpha(u) = alpha * u+ + (1 - alpha) * u-."""
    check_alpha(alpha)
    uv = np.asarray(u, dtype=float)
    out = alpha * np.maximum(uv, 0.0) + (1.0 - alpha) * np.maximum(-uv, 0.0)
    return float(out) if np.ndim(u) == 0 else out


# ---------------------------------------------------------------------------
# shared gradient-descent engine (full batch)
# ---------------------------------------------------------------------------

def _mlp_init(d, k, rng: RngStream):
    g = rng.generator
    return {
        "W1": g.normal(0.0, 1.0 / np.sqrt(d), size=(d, HIDDEN)),
        "b1": np.zeros(HIDDEN),
        "W": g.normal(0.0, 1.0 / np.sqrt(HIDDEN), size=(HIDDEN, k)),
        "b": np.zeros(k),
    }


class _Workspace:
    """Scratch arrays for one full-batch fit, reused across its epochs.

    Every (n, .) block an epoch needs is allocated on first use and then
    overwritten in place, so a fit over the same rows does not allocate and
    page in fresh megabyte-sized temporaries on every epoch.
    """

    def __init__(self):
        self._arrays = {}
        self._design_of = None

    def array(self, name, shape, dtype=float):
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a

    def design(self, Z):
        """[Z | 1], rebuilt only for another Z object: keyed on identity."""
        A = self.array("design", (Z.shape[0], Z.shape[1] + 1))
        if self._design_of is not Z:
            A[:, :-1], A[:, -1], self._design_of = Z, 1.0, Z
        return A


def _forward(params, Z, work):
    """``(out, X)`` of the one model shape out = X @ W + b: X is Z, or, when
    ``params`` hold "W1", the hidden layer tanh([Z | 1] @ [W1; b1])."""
    X = Z
    if "W1" in params:
        (d, hidden), n = params["W1"].shape, Z.shape[0]
        W1b1 = work.array("W1b1", (d + 1, hidden))
        W1b1[:d], W1b1[d] = params["W1"], params["b1"]
        X = np.matmul(work.design(Z), W1b1, out=work.array("H", (n, hidden)))
        np.tanh(X, out=X)
    W = params["W"]
    out = np.matmul(X, W, out=work.array("out", (X.shape[0], W.shape[1])))
    # not folded into [X | 1] @ [W; b]: at the knapsack mean's and width's
    # shapes that product differs from X @ W + b in the last bits
    np.add(out, params["b"], out=out)
    return out, X


def _softplus(t, out, tmp):
    """softplus(t) = log(1 + e^t) into ``out`` as max(t, 0) + log1p(e^-|t|),
    with ``tmp`` as scratch; ``out`` and ``tmp`` must not alias ``t``.

    The same function as np.logaddexp(0, t), to within 3 ulp, in six ufunc
    calls: numpy runs exp and log1p as vectorised loops and logaddexp as a
    scalar libm loop, so on the fits' arrays this is about eight times
    faster. e^-|t| lies in (0, 1], so nothing overflows, and it underflows
    only where softplus(t) rounds to max(t, 0).
    """
    np.abs(t, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    np.log1p(tmp, out=tmp)
    np.maximum(t, 0.0, out=out)
    return np.add(out, tmp, out=out)


def _loss_and_grad_out(kind, out, Y, alpha, work):
    """The mean loss and its gradient in ``out``, one branch per kind; the
    gradient G lives in ``work``."""
    n = out.shape[0]
    G = work.array("G", out.shape)
    t1 = work.array("t1", out.shape)
    if kind == "mse":
        np.subtract(out, Y, out=G)
        loss = 0.5 * np.sum(np.square(G, out=t1)) / n
    elif kind == "pinball":
        # rho_alpha(u) = u * coef, coef = alpha where u > 0 else alpha - 1
        # (exactly -(1 - alpha)); its derivative in out is -coef, 0 on the kink
        u = np.subtract(Y, out, out=work.array("u", out.shape))
        mask = np.greater(u, 0, out=work.array("mask", out.shape, bool))
        G.fill(alpha - 1.0)
        np.copyto(G, alpha, where=mask)
        loss = np.sum(np.multiply(u, G, out=t1)) / n
        np.negative(G, out=G)
        np.copyto(G, 0.0, where=np.equal(u, 0, out=mask))
    elif kind == "smooth-pinball":
        # alpha*u + b*softplus(-u/b) at bandwidth b = WIDTH_BANDWIDTH; its
        # derivative in out is sigmoid(-u/b) - alpha, and sigmoid(t) is
        # exp(t - softplus(t)), whose exponent is never positive. t2 is the
        # softplus's scratch before it holds alpha*u
        b = WIDTH_BANDWIDTH
        u = np.subtract(Y, out, out=work.array("u", out.shape))
        t2 = work.array("t2", out.shape)
        np.divide(u, -b, out=G)                     # t = -u/b
        _softplus(G, t1, t2)                        # softplus(t)
        np.multiply(alpha, u, out=t2)
        loss = np.sum(np.add(t2, np.multiply(b, t1, out=u), out=t2)) / n
        np.subtract(G, t1, out=G)
        np.exp(G, out=G)
        np.subtract(G, alpha, out=G)
    elif kind == "logistic":
        # softplus(out) - Y*out; t2 is the softplus's scratch before Y*out
        t2 = work.array("t2", out.shape)
        _softplus(out, t1, t2)
        np.multiply(Y, out, out=t2)
        loss = np.sum(np.subtract(t1, t2, out=t1)) / n
        np.negative(out, out=G)
        # a logit below about -709 overflows exp to inf, and 1/(1 + inf) is
        # sigmoid's exact limit 0, so the overflow is no error
        with np.errstate(over="ignore"):
            np.exp(G, out=G)
        np.add(1.0, G, out=G)
        np.divide(1.0, G, out=G)     # p = sigmoid(out)
        np.subtract(G, Y, out=G)
    else:
        raise ValueError(kind)
    np.divide(G, n, out=G)
    return loss, G


def loss_and_grad(params, Z, Y, kind, alpha=0.5, work=None, grads=None):
    """Loss plus exact (sub)gradients of every parameter of either shape.

    ``work`` holds the (n, .) scratch arrays; a fit passes the same one to
    every epoch, and a fresh one is made when none is given. Each gradient
    is written into ``grads[k]``, an array of ``params[k]``'s shape that the
    caller owns (a fit's are views into its flat gradient vector), or into a
    fresh one when ``grads`` is None; the dict is returned. The gradients
    never share memory with ``work``. Exposed so tests can compare
    gradients against finite differences.
    """
    work = _Workspace() if work is None else work
    if grads is None:
        grads = {k: np.empty(p.shape) for k, p in params.items()}
    out, X = _forward(params, Z, work)
    loss, G = _loss_and_grad_out(kind, out, Y, alpha, work)
    np.matmul(X.T, G, out=grads["W"])
    _column_sums(G, grads["b"])
    if "W1" in params:
        # np.dot, not np.matmul: with one output column (k = 1) matmul runs
        # numpy's own loop for this outer product, dot runs BLAS; same bits
        dH = np.dot(G, params["W"].T, out=work.array("dH", X.shape))
        # X, the hidden layer's workspace block, is unread after this pass:
        # it takes tanh's slope 1 - X^2 in place
        np.multiply(X, X, out=X)
        np.subtract(1.0, X, out=X)
        np.multiply(dH, X, out=dH)
        np.matmul(Z.T, dH, out=grads["W1"])
        _column_sums(dH, grads["b1"])
    return loss, grads


def _column_sums(A, out):
    """A.sum(axis=0) into ``out``, by the several times faster einsum when A
    has two or more columns: both then add each column in row order, to the
    same bits."""
    if A.shape[1] > 1:
        return np.einsum("ij->j", A, out=out)
    return A.sum(axis=0, out=out)


def _flat_objective(params, Z, Y, kind, alpha, buffers=1):
    """The fit's parameters as one flat vector, the parameter dict as views
    into it, and ``evaluate(i=0)``: the loss and the flat gradient at the
    vector's current value, from one loss_and_grad call over a workspace
    that the fit's passes share. The gradient is written into the i-th of
    ``buffers`` vectors made once, which the next ``evaluate(i)`` reuses."""
    flat = np.concatenate([a.ravel() for a in params.values()])
    views = _views(flat, params)
    work = _Workspace()
    grads = [np.empty_like(flat) for _ in range(buffers)]
    grad_views = [_views(g, params) for g in grads]

    def evaluate(i=0):
        loss, _ = loss_and_grad(views, Z, Y, kind, alpha, work, grad_views[i])
        return loss, grads[i]

    return flat, views, evaluate


def _fit_gradient(params, Z, Y, kind, alpha, epochs, optimizer="adam"):
    """Full-batch training, Adam at ADAM_STEP or subgradient descent from
    SUBGRADIENT_STEP. Returns the best parameters seen, by loss.

    The parameters, their gradients and the optimizer state each live in one
    flat vector (the parameter dict holds views into it), so a step is a few
    numpy calls on that vector rather than a few per parameter array. Adam
    forms m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and its step
    ADAM_STEP mh / (sqrt(vh) + eps) in place, in that order of operations.
    """
    flat, params, evaluate = _flat_objective(params, Z, Y, kind, alpha)
    if optimizer == "adam":
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        mh, vh = np.empty_like(flat), np.empty_like(flat)
        b1, b2, eps = 0.9, 0.999, 1e-8
    best_loss = np.inf
    best = flat.copy()
    for t in range(1, epochs + 1):
        loss, grad = evaluate()
        if loss < best_loss:
            best_loss = loss
            best[:] = flat
        if optimizer == "adam":
            np.multiply(m, b1, out=m)
            m += np.multiply(1 - b1, grad, out=vh)
            np.multiply(v, b2, out=v)
            v += np.multiply(1 - b2, np.square(grad, out=vh), out=vh)
            np.multiply(ADAM_STEP, np.divide(m, 1 - b1 ** t, out=mh), out=mh)
            np.sqrt(np.divide(v, 1 - b2 ** t, out=vh), out=vh)
            flat -= np.divide(mh, np.add(vh, eps, out=vh), out=mh)
        else:  # subgradient descent with step decay
            step = SUBGRADIENT_STEP / np.sqrt(1.0 + t / 50.0)
            flat -= step * grad
    loss, _ = evaluate()
    if loss < best_loss:
        best, best_loss = flat, loss
    return _views(best, params), best_loss


def _two_loop(grad, pairs):
    """H g for the L-BFGS inverse-Hessian estimate H of the curvature pairs
    (s, y, 1 / s'y), oldest first: the two-loop recursion, with H0 scaled
    by s'y / y'y of the newest pair (Nocedal & Wright, Algorithm 7.4)."""
    q = grad.copy()
    coefs = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        coefs.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        q += (a - rho * (y @ q)) * s
    return q


def _fit_lbfgs(params, Z, Y, kind, alpha, iterations):
    """Full-batch L-BFGS (Liu & Nocedal 1989) for a smooth loss.

    The direction comes from the last LBFGS_MEMORY curvature pairs, and a
    pair is kept only when s'y > 1e-10 |s| |y|. With no pair in memory it is
    -g, tried first at step 1 / |g|_1; a direction that does not descend
    falls back to that and clears the memory. Otherwise the line search
    starts from a unit step. It halves the step until the loss falls by the
    Armijo margin ARMIJO_C1 * step * g'd at a finite point. The fit stops
    after ``iterations`` accepted steps, at a zero gradient, or when
    MAX_HALVINGS halvings find no such point. Every accepted step lowers
    the loss, so the fit ends at the best point it has seen; it returns that
    point and its loss. Parameters and gradients are flat vectors, as in
    _fit_gradient, and one loss_and_grad call prices each trial point.
    """
    # two gradient vectors: a trial writes into the one not holding grad
    flat, params, evaluate = _flat_objective(params, Z, Y, kind, alpha, buffers=2)
    current = 0
    loss, grad = evaluate(current)
    pairs = deque(maxlen=LBFGS_MEMORY)
    for _ in range(iterations):
        if not np.any(grad):
            break
        direction = -_two_loop(grad, pairs)
        slope = grad @ direction
        if not slope < 0:
            pairs.clear()
            direction = -grad
            slope = grad @ direction
        step = 1.0 if pairs else 1.0 / np.abs(grad).sum()
        start = flat.copy()
        for _ in range(MAX_HALVINGS + 1):
            np.add(start, step * direction, out=flat)
            trial_loss, trial_grad = evaluate(1 - current)
            if (trial_loss < loss and trial_loss <= loss + ARMIJO_C1 * step * slope
                    and np.isfinite(trial_loss) and np.all(np.isfinite(trial_grad))):
                break
            step *= 0.5
        else:
            flat[:] = start
            break
        s = flat - start
        y = trial_grad - grad
        sy = s @ y
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        loss, grad, current = trial_loss, trial_grad, 1 - current
    return params, loss


def _views(flat, like):
    """Views into ``flat``, one per array of ``like``, under its key and shape."""
    views, at = {}, 0
    for k, a in like.items():
        views[k] = flat[at:at + a.size].reshape(a.shape)
        at += a.size
    return views


class Predictor:
    """A fitted mean or width model: the forward pass of its parameters, floored
    at ``floor`` when one is set (width models): a number, or one per column."""

    def __init__(self, params, floor=None):
        self.params = params
        self.floor = floor
        self.input_dim = params.get("W1", params["W"]).shape[0]
        self.output_dim = params["W"].shape[1]

    def predict(self, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim}-dim input, got {Z.shape[1]}")
        out, _ = _forward(self.params, Z, _Workspace())
        return out if self.floor is None else np.maximum(out, self.floor)


# ---------------------------------------------------------------------------
# mean models
# ---------------------------------------------------------------------------

def fit_mean(train: Dataset, kind: str, seed: int):
    """Fit the conditional-mean predictor on (Z, C): ridge ("ridge") or the
    MLP ("mlp", initial weights drawn from ``seed``)."""
    if train.n == 0 or train.n_cost == 0:
        raise ValueError("training data must be nonempty with a cost block")
    Z, C = train.Z, train.C
    if kind == "ridge":
        zm = Z.mean(axis=0)
        cm = C.mean(axis=0)
        Zc = Z - zm
        G = Zc.T @ Zc + RIDGE_LAMBDA * np.eye(train.d)
        W = solve_spd(G, Zc.T @ (C - cm))
        return Predictor({"W": W, "b": cm - zm @ W})
    if kind == "mlp":
        rng = RngStream(seed, 101)
        params = _mlp_init(train.d, train.n_cost, rng)
        params, _ = _fit_gradient(params, Z, C, "mse", 0.5, MEAN_EPOCHS)
        return Predictor(params)
    raise ValueError(f"unknown mean model kind {kind!r}")


def compute_residuals(data: Dataset, mean_model) -> np.ndarray:
    """r_i = c_i - f(z_i), one row per sample."""
    if data.n_cost != mean_model.output_dim:
        raise ValueError("cost dimension does not match the mean model")
    return data.C - mean_model.predict(data.Z)


# ---------------------------------------------------------------------------
# quantile models
# ---------------------------------------------------------------------------

def fit_quantile(Z, abs_residuals, alpha: float, kind: str, seed: int):
    """Fit h(z) to the alpha-quantile of |r| per output coordinate.

    The linear width ("linear") minimizes sum_k rho_alpha(|r|_k - h(z)_k)
    by WIDTH_EPOCHS epochs of full-batch subgradient descent with step
    decay. Its bias starts at the empirical quantile and the fit keeps the
    best parameters it sees, so it never ends worse than the best constant
    predictor.

    The MLP ("mlp", initial weights drawn from ``seed``) fits each column of
    |r| divided by its sd (a zero sd reads as 1). It minimizes the pinball
    loss smoothed by a logistic kernel of bandwidth WIDTH_BANDWIDTH,
    alpha*u + b*softplus(-u/b) with u = |r|/sd - h(z) (convolution-smoothed
    quantile regression, He, Pan, Tan & Zhou 2023), by at most
    WIDTH_ITERATIONS L-BFGS steps; the output bias starts at the empirical
    quantile. Every accepted step lowers the smoothed loss, so the fit ends
    no higher than its random start, and the smoothed loss exceeds the exact
    one by at most b*log(2) per entry in sd units. Nothing bounds the result
    by the best constant predictor. The sd is folded back into W and b, so
    h is one Predictor in the units of |r|.

    The MLP width is floored per column at WIDTH_SD_FLOOR sd of |r|. The
    loss weighs an error by its size in sd units, while a calibration score
    divides |r| by h: where |r| is small next to its column's sd the fit
    can end at or below zero (about 2 % of the grid world's entries), and
    one such entry scores |r| / WIDTH_FLOOR. The floor bounds that ratio;
    on the grid world it binds on about a fifth of the entries, on simple
    and knapsack on under 0.3 %. The linear width keeps WIDTH_FLOOR.
    """
    check_alpha(alpha)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Y = np.asarray(abs_residuals, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if np.any(Y < 0):
        raise ValueError("absolute residuals must be nonnegative")
    if Z.shape[0] != Y.shape[0]:
        raise ValueError("row mismatch between Z and residuals")
    d, k = Z.shape[1], Y.shape[1]
    q0 = np.quantile(Y, alpha, axis=0)
    floor = WIDTH_FLOOR
    if kind == "linear":
        params = {"W": np.zeros((d, k)), "b": q0.copy()}
        params, _ = _fit_gradient(params, Z, Y, "pinball", alpha, WIDTH_EPOCHS,
                                  optimizer="sgd")
    elif kind == "mlp":
        rng = RngStream(seed, 202)
        params = _mlp_init(d, k, rng)
        sd = Y.std(axis=0)
        floor = np.maximum(WIDTH_SD_FLOOR * sd, WIDTH_FLOOR)
        sd[sd == 0] = 1.0
        params["b"] = q0 / sd
        params, _ = _fit_lbfgs(params, Z, Y / sd, "smooth-pinball", alpha,
                               WIDTH_ITERATIONS)
        params = dict(params, W=params["W"] * sd, b=params["b"] * sd)
    else:
        raise ValueError(f"unknown quantile model kind {kind!r}")
    return Predictor(params, floor)
