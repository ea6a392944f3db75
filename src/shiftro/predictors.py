"""Mean predictors for E[c|z] and residual-magnitude quantile predictors.

Two model families each: a convex baseline (ridge / linear quantile
regression) and a one-hidden-layer MLP with 16 units. The MLP forward and
backward pass is shared with the probabilistic classifier in density_ratio.
The mean MLP trains with full-batch Adam and the linear width with
subgradient descent (_fit_gradient). The smooth losses train with L-BFGS
(_fit_lbfgs): the logistic loss of both classifiers, linear and MLP, and
the width MLP's pinball loss smoothed by a logistic kernel, fitted to |r|
in units of each column's sd and floored at a fifth of it. Both optimizers see the same flat objective
(_flat_objective): the parameters as one vector, and a pass that prices it
with one loss_and_grad call, which forms each kind's loss and output
gradient in one branch. Every fitted mean or width model is a Predictor
over its parameter dict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, solve_spd

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
        if C.size == 0:
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
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    uv = np.asarray(u, dtype=float)
    out = alpha * np.maximum(uv, 0.0) + (1.0 - alpha) * np.maximum(-uv, 0.0)
    return float(out) if np.ndim(u) == 0 else out


# ---------------------------------------------------------------------------
# shared gradient-descent engine (full batch)
# ---------------------------------------------------------------------------

def _mlp_init(d, hidden, k, rng: RngStream):
    g = rng.generator
    return {
        "W1": g.normal(0.0, 1.0 / np.sqrt(d), size=(d, hidden)),
        "b1": np.zeros(hidden),
        "W2": g.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, k)),
        "b2": np.zeros(k),
    }


class _Workspace:
    """Scratch arrays for one full-batch fit, reused across its epochs.

    Every (n, .) block an epoch needs is allocated on first use and then
    overwritten in place, so a fit over the same rows does not allocate and
    page in fresh megabyte-sized temporaries on every epoch.
    """

    def __init__(self):
        self._arrays = {}

    def array(self, name, shape, dtype=float):
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a


def _mlp_forward(params, Z, work=None):
    work = _Workspace() if work is None else work
    n = Z.shape[0]
    W1, W2 = params["W1"], params["W2"]
    H = np.matmul(Z, W1, out=work.array("H", (n, W1.shape[1])))
    np.add(H, params["b1"], out=H)
    np.tanh(H, out=H)
    out = np.matmul(H, W2, out=work.array("out", (n, W2.shape[1])))
    np.add(out, params["b2"], out=out)
    return out, H


def _linear_forward(params, Z, work=None):
    work = _Workspace() if work is None else work
    W = params["W"]
    out = np.matmul(Z, W, out=work.array("out", (Z.shape[0], W.shape[1])))
    np.add(out, params["b"], out=out)
    return out, None


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
        # rho_alpha(Y - out) term by term; its derivative in out has a zero
        # subgradient on the kink
        u = np.subtract(Y, out, out=work.array("u", out.shape))
        t2 = work.array("t2", out.shape)
        np.multiply(alpha, np.maximum(u, 0.0, out=t1), out=t1)
        np.negative(u, out=t2)
        np.multiply(1.0 - alpha, np.maximum(t2, 0.0, out=t2), out=t2)
        loss = np.sum(np.add(t1, t2, out=t1)) / n
        mask = work.array("mask", out.shape, bool)
        np.multiply(-alpha, np.greater(u, 0, out=mask), out=G)
        np.add(G, np.multiply(1.0 - alpha, np.less(u, 0, out=mask), out=t1), out=G)
    elif kind == "smooth-pinball":
        # alpha*u + b*softplus(-u/b) at bandwidth b = WIDTH_BANDWIDTH; its
        # derivative in out is sigmoid(-u/b) - alpha, and sigmoid(t) is
        # exp(t - softplus(t)), whose exponent is never positive
        b = WIDTH_BANDWIDTH
        u = np.subtract(Y, out, out=work.array("u", out.shape))
        t2 = work.array("t2", out.shape)
        np.divide(u, -b, out=G)                     # t = -u/b
        np.logaddexp(0.0, G, out=t1)                # softplus(t)
        np.multiply(alpha, u, out=t2)
        loss = np.sum(np.add(t2, np.multiply(b, t1, out=u), out=t2)) / n
        np.subtract(G, t1, out=G)
        np.exp(G, out=G)
        np.subtract(G, alpha, out=G)
    elif kind == "logistic":
        # stable softplus(out) - Y*out
        t2 = work.array("t2", out.shape)
        np.logaddexp(0.0, out, out=t1)
        np.multiply(Y, out, out=t2)
        loss = np.sum(np.subtract(t1, t2, out=t1)) / n
        np.negative(out, out=G)
        np.exp(G, out=G)
        np.add(1.0, G, out=G)
        np.divide(1.0, G, out=G)     # p = sigmoid(out)
        np.subtract(G, Y, out=G)
    else:
        raise ValueError(kind)
    np.divide(G, n, out=G)
    return loss, G


def loss_and_grad(params, Z, Y, kind, alpha=0.5, work=None):
    """Loss plus exact (sub)gradients for either architecture.

    ``work`` holds the (n, .) scratch arrays; a fit passes the same one to
    every epoch, and a fresh one is made when none is given. The returned
    gradients never share memory with it. Exposed so tests can compare
    gradients against finite differences.
    """
    work = _Workspace() if work is None else work
    if "W1" in params:
        out, H = _mlp_forward(params, Z, work)
        loss, G = _loss_and_grad_out(kind, out, Y, alpha, work)
        dW2 = H.T @ G
        db2 = G.sum(axis=0)
        # np.dot, not np.matmul: with one output column (k = 1) matmul runs
        # numpy's own loop for this outer product, dot runs BLAS; same bits
        dH = np.dot(G, params["W2"].T, out=work.array("dH", H.shape))
        slope = np.multiply(H, H, out=work.array("slope", H.shape))
        np.subtract(1.0, slope, out=slope)
        np.multiply(dH, slope, out=dH)
        # einsum sums the columns of (n, HIDDEN) dH several times faster than
        # sum(axis=0), with the same bits for two or more columns; G keeps
        # sum(axis=0), since with one column the two differ in the last bits
        grads = {"W1": Z.T @ dH, "b1": np.einsum("ij->j", dH), "W2": dW2, "b2": db2}
    else:
        out, _ = _linear_forward(params, Z, work)
        loss, G = _loss_and_grad_out(kind, out, Y, alpha, work)
        grads = {"W": Z.T @ G, "b": G.sum(axis=0)}
    return loss, grads


def _flat_objective(params, Z, Y, kind, alpha):
    """The fit's parameters as one flat vector, the parameter dict as views
    into it, and ``evaluate()``: the loss and the flat gradient at the
    vector's current value, from one loss_and_grad call over a workspace
    that the fit's passes share."""
    flat = np.concatenate([a.ravel() for a in params.values()])
    views = _views(flat, params)
    work = _Workspace()

    def evaluate():
        loss, grads = loss_and_grad(views, Z, Y, kind, alpha, work)
        return loss, np.concatenate([grads[k].ravel() for k in views])

    return flat, views, evaluate


def _fit_gradient(params, Z, Y, kind, alpha, epochs, optimizer="adam"):
    """Full-batch training, Adam at ADAM_STEP or subgradient descent from
    SUBGRADIENT_STEP. Returns the best parameters seen, by loss.

    The parameters, their gradients and the optimizer state each live in one
    flat vector (the parameter dict holds views into it), so a step is a few
    numpy calls on that vector rather than a few per parameter array.
    """
    flat, params, evaluate = _flat_objective(params, Z, Y, kind, alpha)
    if optimizer == "adam":
        m = np.zeros_like(flat)
        v = np.zeros_like(flat)
        b1, b2, eps = 0.9, 0.999, 1e-8
    best_loss = np.inf
    best = flat.copy()
    for t in range(1, epochs + 1):
        loss, grad = evaluate()
        if loss < best_loss:
            best_loss = loss
            best[:] = flat
        if optimizer == "adam":
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad ** 2
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            flat -= ADAM_STEP * mh / (np.sqrt(vh) + eps)
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
    flat, params, evaluate = _flat_objective(params, Z, Y, kind, alpha)
    loss, grad = evaluate()
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
            trial_loss, trial_grad = evaluate()
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
        loss, grad = trial_loss, trial_grad
    return params, loss


def _views(flat, like):
    """Views into ``flat``, one per array of ``like``, under its key and shape."""
    views, at = {}, 0
    for k, a in like.items():
        views[k] = flat[at:at + a.size].reshape(a.shape)
        at += a.size
    return views


class Predictor:
    """A fitted mean or width model: the MLP or linear forward pass of its
    parameters, floored at ``floor`` when one is set (width models): a
    number, or one per output column."""

    def __init__(self, params, floor=None):
        self.params = params
        self.floor = floor
        mlp = "W1" in params
        self._forward = _mlp_forward if mlp else _linear_forward
        self.input_dim = params["W1" if mlp else "W"].shape[0]
        self.output_dim = params["W2" if mlp else "W"].shape[1]

    def predict(self, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim}-dim input, got {Z.shape[1]}")
        out, _ = self._forward(self.params, Z)
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
        params = _mlp_init(train.d, HIDDEN, train.n_cost, rng)
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
    by the best constant predictor. The sd is folded back into W2 and b2, so
    h is one Predictor in the units of |r|.

    The MLP width is floored per column at WIDTH_SD_FLOOR sd of |r|. The
    loss weighs an error by its size in sd units, while a calibration score
    divides |r| by h: where |r| is small next to its column's sd the fit
    can end at or below zero (about 2 % of the grid world's entries), and
    one such entry scores |r| / WIDTH_FLOOR. The floor bounds that ratio;
    on the grid world it binds on about a fifth of the entries, on simple
    and knapsack on under 0.3 %. The linear width keeps WIDTH_FLOOR.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
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
        params = _mlp_init(d, HIDDEN, k, rng)
        sd = Y.std(axis=0)
        floor = np.maximum(WIDTH_SD_FLOOR * sd, WIDTH_FLOOR)
        sd[sd == 0] = 1.0
        params["b2"] = q0 / sd
        params, _ = _fit_lbfgs(params, Z, Y / sd, "smooth-pinball", alpha,
                               WIDTH_ITERATIONS)
        params = dict(params, W2=params["W2"] * sd, b2=params["b2"] * sd)
    else:
        raise ValueError(f"unknown quantile model kind {kind!r}")
    return Predictor(params, floor)
