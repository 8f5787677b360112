"""Independent reference implementations the test suite checks against.

Everything here is deliberately written straight-line, separate from the
library's own code paths: a tiny infix parser, a normal-equations fit,
a per-problem affine loss with its gradient, a limited-memory BFGS fit
of one problem, the batched cross-entropy fit that recomputes every
Newton step's logits, the layer loss of one prediction matrix, a plain-loop
fitness recomputation, MLP training one layer at a time, random genomes
drawn one at a time, point mutation by boolean-mask writes, the CGP
operators as plain expressions, and the boundary sampler that scores its
whole pool in one pass.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from netexpr import affine, boundary, cgp, mlp
from netexpr.affine import (ARMIJO_C, ARMIJO_SHRINK, CROSS_ENTROPY, MAX_HALVINGS, MSE,
                            NEWTON_RIDGE, NEWTON_TOL, AffineParams, RowFits,
                            _ce_loss, _centre_rows)
from netexpr.errors import DimensionMismatch
from netexpr.evolve import OVERFLOW_PENALTY
from netexpr.surrogate import LayerChromosome, NetGenotype

_TOKEN = re.compile(
    r"\s*(?:"
    r"(-?\d+\.?\d*(?:[eE][+-]?\d+)?)"   # number (repr of a float)
    r"|([A-Za-z_]\w*)"                  # name
    r"|(\()|(\))|(\^)|([-+*/])"
    r")"
)

_UNARY = {
    "sqrt": cgp.p_sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "ln": cgp.p_ln,
    "tan": cgp.p_tan,
    "exp": cgp.p_exp,
}

_BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": cgp.p_div,
}


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot tokenize at {text[pos:pos + 12]!r}")
        tokens.append(next(g for g in m.groups() if g is not None))
        pos = m.end()
    return tokens


def parse_infix(text: str, var_names: list[str]):
    """Parse a fully parenthesized rendering back into a callable.

    Returns f(inputs) evaluating the expression over an (n, d) matrix with
    the same protected primitives the library uses.
    """
    tokens = tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def atom():
        tok = take()
        if tok == "(":
            left = atom()
            nxt = peek()
            if nxt == ")":
                take(")")
                return left                      # bare group, from square's inner parens
            if nxt == "^":
                take("^")
                if take() != "2":
                    raise ValueError("only ^2 is printed")
                take(")")
                return lambda X: np.square(left(X))
            op = _BINARY[take()]
            right = atom()
            take(")")
            return lambda X: op(left(X), right(X))
        if tok in _UNARY:
            fn = _UNARY[tok]
            take("(")
            arg = atom()
            take(")")
            return lambda X: fn(arg(X))
        if re.fullmatch(r"-?\d.*", tok):
            value = float(tok)
            return lambda X: np.full(X.shape[0], value)
        idx = var_names.index(tok)
        return lambda X: np.asarray(X, dtype=float)[:, idx]

    fn = atom()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens: {tokens[pos:]}")

    def call(X):
        with np.errstate(all="ignore"):
            return fn(np.asarray(X, dtype=float))

    return call


def normal_equations_fit(f: np.ndarray, targets: np.ndarray):
    """Per-column least squares of targets against [f, 1] via the normal equations."""
    A = np.column_stack([f, np.ones_like(f)])
    AtA = A.T @ A
    w = np.empty(targets.shape[1])
    b = np.empty(targets.shape[1])
    for j in range(targets.shape[1]):
        coef = np.linalg.solve(AtA, A.T @ targets[:, j])
        w[j], b[j] = coef
    return w, b


LBFGS_MEMORY = 10
LBFGS_TOL = 1e-8
LBFGS_MAX_ITERS = 500


@dataclass(frozen=True)
class FitProblem:
    f_values: np.ndarray    # (n_samples,)
    targets: np.ndarray     # (n_samples, width)
    loss_kind: str = MSE

    def __post_init__(self):
        object.__setattr__(self, "f_values", np.asarray(self.f_values, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.f_values.ndim != 1 or self.targets.ndim != 2:
            raise DimensionMismatch("f_values must be (n,), targets (n, width)")
        if self.f_values.shape[0] != self.targets.shape[0]:
            raise DimensionMismatch("f_values and targets disagree on sample count")
        if self.f_values.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        if not np.all(np.isfinite(self.targets)):
            raise ValueError("targets must be finite")
        if self.loss_kind not in (MSE, CROSS_ENTROPY):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")

    @property
    def width(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True)
class FitResult:
    params: AffineParams
    final_loss: float
    iterations: int
    converged: bool


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def loss_and_grad(params: AffineParams, problem: FitProblem):
    """Loss and its gradient, flattened as [dL/dw, dL/db].

    Mean over samples, sum over neurons.  For cross-entropy the scores
    w_c * f + b_c go through a softmax against the target rows.
    """
    if params.width != problem.width:
        raise DimensionMismatch("params width does not match targets")
    f = problem.f_values
    t = problem.targets
    n = f.shape[0]
    z = f[:, None] * params.w[None, :] + params.b[None, :]
    if problem.loss_kind == MSE:
        r = z - t
        loss = float((r * r).sum() / n)
        gz = 2.0 * r / n
    else:
        logp = log_softmax(z)
        loss = float(-(t * logp).sum() / n)
        gz = (np.exp(logp) - t) / n
    gw = (gz * f[:, None]).sum(axis=0)
    gb = gz.sum(axis=0)
    return loss, np.concatenate([gw, gb])


def _initial_params(problem: FitProblem) -> AffineParams:
    if problem.loss_kind == MSE:
        return AffineParams(np.zeros(problem.width), problem.targets.mean(axis=0))
    return AffineParams(np.zeros(problem.width), np.zeros(problem.width))


def fit_affine_lbfgs(problem: FitProblem, memory: int = LBFGS_MEMORY,
                     max_iters: int = LBFGS_MAX_ITERS,
                     tol: float = LBFGS_TOL) -> FitResult:
    """Limited-memory BFGS with two-loop recursion and Armijo backtracking
    (Nocedal & Wright, *Numerical Optimization*, section 7.2)."""
    width = problem.width
    start = _initial_params(problem)
    x = np.concatenate([start.w, start.b])

    def unpack(vec):
        return AffineParams(vec[:width], vec[width:])

    loss, grad = loss_and_grad(unpack(x), problem)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    iterations = 0
    converged = float(np.linalg.norm(grad)) <= tol

    while not converged and iterations < max_iters:
        q = grad.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            beta = rho * (y @ q)
            q += (a - beta) * s
        direction = -q

        slope = float(grad @ direction)
        if slope >= 0:            # not a descent direction; restart on the gradient
            direction = -grad
            slope = float(grad @ direction)

        step = 1.0
        ok = False
        for _ in range(MAX_HALVINGS):
            cand = x + step * direction
            cand_loss, cand_grad = loss_and_grad(unpack(cand), problem)
            if np.isfinite(cand_loss) and cand_loss <= loss + ARMIJO_C * step * slope:
                ok = True
                break
            step *= ARMIJO_SHRINK
        if not ok:
            return FitResult(unpack(x), loss, iterations, False)

        s_vec = cand - x
        y_vec = cand_grad - grad
        sy = float(s_vec @ y_vec)
        if sy > 1e-16:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, loss, grad = cand, cand_loss, cand_grad
        iterations += 1
        converged = float(np.linalg.norm(grad)) <= tol

    return FitResult(unpack(x), loss, iterations, converged)


def _ce_lse_plain(G, w, b):
    """Logits (R, K, n) of classes 1..K for rows G (R, n), and the
    log-sum-exp (R, n) over them and the pinned class 0."""
    Z = w[:, :, None] * G[:, None, :] + b[:, :, None]
    m = Z.max(axis=1, initial=0.0)
    return Z, m + np.log(np.exp(-m) + np.exp(Z - m[:, None, :]).sum(axis=1))


def fit_affine_ce_rows_recomputing(F: np.ndarray, targets: np.ndarray) -> RowFits:
    """``affine.fit_affine_ce_rows`` as it was before each Newton step read
    the logits, log-sum-exp and loss of the accepted Armijo candidate: here
    every step recomputes them.  The reference its results must equal bit
    for bit.

    Cross-entropy fit of targets (n, C) against every row of F (P, n).

    Softmax is shift-invariant, so class 0 is pinned (w_0 = b_0 = 0) and
    each row has 2(C-1) free parameters.  Rows are centred and scaled to
    unit variance, fitted by Newton from w=0 and the best constant logits,
    and mapped back.  Each Hessian diagonal entry is scaled by
    1 + NEWTON_RIDGE, so each parameter is damped relative to its own
    curvature.  Each row takes its own Armijo backtracking step and stops
    once its Newton decrement g'H^-1g/2 is at most NEWTON_TOL * (1 + loss)
    (converged), or when no step decreases the loss; NEWTON_MAX_ITERS
    steps is a backstop only.  A row without spread (as in
    ``fit_affine_mse_rows``), or whose fit is not finite, is degenerate:
    w=0 and b the best constant logits.  Like the MSE fit, every sum runs
    along one row, so equal rows get bit-equal fits wherever they sit.
    A row's loss is the one its last step computed, kept or made NaN by
    the library's own rule (``affine._ce_loss``).
    """
    P, n = F.shape
    C = targets.shape[1]
    K, D = C - 1, 2 * (C - 1)
    mass = targets.sum(axis=1)                     # 1 for probability rows
    b_const = np.log(np.maximum(targets.mean(axis=0), np.finfo(float).tiny))
    b_const -= b_const[0]
    w = np.zeros((P, C))
    b = np.tile(b_const, (P, 1))
    converged = np.zeros(P, dtype=bool)
    iterations = np.zeros(P, dtype=np.int64)

    f_mean, Fc, s_ff, spread, kappa = _centre_rows(F)
    rows = np.flatnonzero(spread)
    scale = np.sqrt(s_ff[rows] / n)
    G = Fc[rows] / scale[:, None]                  # standardised rows (R, n)
    G2 = G * G
    T = targets[:, 1:].T                           # (K, n)
    t_sum = T.sum(axis=1)
    TG = (G[:, None, :] * T).sum(axis=2)           # (R, K)
    tw = np.zeros((rows.size, K))                  # standardised parameters
    tb = np.tile(b_const[1:], (rows.size, 1))
    diag = np.arange(D)

    def loss_of(idx, cw, cb, lse):
        linear = (cw * TG[idx]).sum(axis=1) + (cb * t_sum).sum(axis=1)
        return ((mass * lse).sum(axis=1) - linear) / n

    def newton_step(idx):
        """Loss, Newton step, its slope g'step, and whether it is finite."""
        g = G[idx]
        Z, lse = _ce_lse_plain(g, tw[idx], tb[idx])
        prob = np.exp(Z - lse[:, None, :])               # (R, K, n)
        Q = mass * prob
        grad = np.concatenate([(Q * g[:, None, :]).sum(axis=2) - TG[idx],
                               Q.sum(axis=2) - t_sum], axis=1) / n
        A = Q[:, :, None, :] * (np.eye(K)[:, :, None] - prob[:, None, :, :])
        H = np.empty((idx.size, D, D))
        H[:, :K, :K] = (A * G2[idx][:, None, None, :]).sum(axis=3)
        H[:, :K, K:] = H[:, K:, :K] = (A * g[:, None, None, :]).sum(axis=3)
        H[:, K:, K:] = A.sum(axis=3)
        H /= n
        H[:, diag, diag] *= 1.0 + NEWTON_RIDGE
        H[:, diag, diag] += np.finfo(float).tiny
        ok = np.isfinite(H).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
        step = np.zeros((idx.size, D))
        step[ok] = np.linalg.solve(H[ok], -grad[ok][:, :, None])[:, :, 0]
        return loss_of(idx, tw[idx], tb[idx], lse), step, (grad * step).sum(axis=1), ok

    active = np.arange(rows.size)
    final = np.empty(rows.size)                    # each row's last step's loss
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while active.size:
            loss, step, slope, ok = newton_step(active)
            final[active] = loss
            done = -0.5 * slope <= NEWTON_TOL * (1.0 + loss)
            converged[rows[active]] = done & ok
            go = ok & ~done & (iterations[rows[active]] < affine.NEWTON_MAX_ITERS)
            active, step, slope, loss = active[go], step[go], slope[go], loss[go]

            # per-row Armijo backtracking; a row that never passes stops
            t = np.ones(active.size)
            pending = np.arange(active.size)
            for _ in range(MAX_HALVINGS):
                if not pending.size:
                    break
                idx = active[pending]
                cw = tw[idx] + t[pending, None] * step[pending, :K]
                cb = tb[idx] + t[pending, None] * step[pending, K:]
                cand = loss_of(idx, cw, cb, _ce_lse_plain(G[idx], cw, cb)[1])
                accept = np.isfinite(cand) & (
                    cand <= loss[pending] + ARMIJO_C * t[pending] * slope[pending])
                tw[idx[accept]], tb[idx[accept]] = cw[accept], cb[accept]
                pending = pending[~accept]
                t[pending] *= ARMIJO_SHRINK
            active = np.delete(active, pending)
            iterations[rows[active]] += 1

        w[rows, 1:] = tw / scale[:, None]
        b[rows, 1:] = tb - w[rows, 1:] * f_mean[rows, None]
    degenerate = ~(spread & np.isfinite(w).all(axis=1) & np.isfinite(b).all(axis=1))
    w[degenerate] = 0.0
    b[degenerate] = b_const
    converged[degenerate] = True
    iterations[degenerate] = 0
    losses = np.full(P, np.nan)
    losses[rows] = _ce_loss(final, tw, tb, kappa[rows], C)
    losses[degenerate] = np.nan
    return RowFits(w, b, degenerate, converged, iterations, losses)


def sample_near_boundary_whole_pool(model, cfg) -> boundary.BoundarySample:
    """``boundary.sample_near_boundary`` as it was before the pool was
    scored in row blocks: the whole pool goes through ``predict`` in one
    pass.  The reference its samples must equal bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    pool = rng.uniform(cfg.bounds[:, 0], cfg.bounds[:, 1],
                       size=(cfg.pool_size, cfg.bounds.shape[0]))
    probs = mlp.predict(model, pool)
    d = boundary.boundary_distances(probs)
    keep = np.argsort(d, kind="stable")[:cfg.keep_size]
    return boundary.BoundarySample(pool[keep], probs[keep], d[keep])


def score_values_plain(pred: np.ndarray, target: np.ndarray, kind: str) -> float:
    """Layer loss of one prediction matrix: mean over samples and neurons,
    or soft-target cross-entropy.  Non-finite predictions score the flat
    overflow penalty."""
    if not np.all(np.isfinite(pred)):
        return OVERFLOW_PENALTY
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == MSE:
            d = pred - target
            loss = float((d * d).mean())
        else:
            loss = float(-(target * log_softmax(pred)).sum() / pred.shape[0])
    return loss if math.isfinite(loss) else OVERFLOW_PENALTY


def fitness_by_hand(net, x, hidden_targets, y_target, task, penalty=1e12):
    """Plain-loop recomputation of the layer-chain fitness.

    Walks the chromosome chain through decoded trees (not the graph path),
    scores each hidden layer with an explicit MSE loop and the output with
    MSE or soft-target cross-entropy, and combines per the documented rule:
    mean of hidden-layer losses plus the output loss, with a flat penalty
    for any layer whose values are not finite.
    """
    current = np.asarray(x, dtype=float)
    losses = []
    n_layers = len(net.chromosomes)
    for i, chrom in enumerate(net.chromosomes):
        tree = cgp.decode(chrom.genotype)[0]
        f = cgp.evaluate(tree, current, chrom.genotype.constants)
        h = f[:, None] * chrom.affine.w[None, :] + chrom.affine.b[None, :]
        target = y_target if i == n_layers - 1 else hidden_targets[i]
        if not np.all(np.isfinite(h)):
            losses.append(penalty)
        elif i == n_layers - 1 and task == "classification":
            z = h - h.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            total = 0.0
            for k in range(h.shape[0]):
                for c in range(h.shape[1]):
                    total -= target[k, c] * logp[k, c]
            loss = total / h.shape[0]
            losses.append(loss if np.isfinite(loss) else penalty)
        else:
            total = 0.0
            for k in range(h.shape[0]):
                for c in range(h.shape[1]):
                    total += (target[k, c] - h[k, c]) ** 2
            loss = total / (h.shape[0] * h.shape[1])
            losses.append(loss if np.isfinite(loss) else penalty)
        current = h
    hidden = losses[:-1]
    mean_hidden = sum(hidden) / len(hidden) if hidden else 0.0
    return mean_hidden + losses[-1], losses


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """The logistic function by masks on the sign of z: 1/(1+exp(-z))
    where z >= 0 and exp(z)/(1+exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_per_layer(X, T, arch, cfg, head):
    """Minibatch SGD or Adam over each (W, b) pair in turn, with its own
    forward pass and backprop, from ``mlp.init_model``'s start and the
    same batch order as ``mlp.train``.  T is the target matrix; returns
    the list of (W, b)."""
    rng = np.random.default_rng(cfg.seed)
    layers = list(mlp.init_model(X.shape[1], arch, T.shape[1], head, rng).layers)
    moments = [(np.zeros_like(W), np.zeros_like(b), np.zeros_like(W), np.zeros_like(b))
               for W, b in layers]
    b1, b2 = mlp.ADAM_BETAS
    n = X.shape[0]
    batch = min(cfg.batch_size, n)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo:lo + batch]
            Xb, Tb = X[idx], T[idx]
            acts = [Xb]
            for W, b in layers[:-1]:
                acts.append(sigmoid_masked(acts[-1] @ W + b))
            z = acts[-1] @ layers[-1][0] + layers[-1][1]
            if head == mlp.SOFTMAX:
                z = z - z.max(axis=1, keepdims=True)
                e = np.exp(z)
                delta = (e / e.sum(axis=1, keepdims=True) - Tb) / len(idx)
            else:
                delta = 2.0 * (z - Tb) / (len(idx) * Tb.shape[1])
            grads = [None] * len(layers)
            for i in range(len(layers) - 1, -1, -1):
                grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
                if i:
                    delta = (delta @ layers[i][0].T) * acts[i] * (1.0 - acts[i])
            step += 1
            for i, ((W, b), (gW, gb)) in enumerate(zip(layers, grads)):
                if cfg.optimizer == "sgd":
                    layers[i] = (W - cfg.learning_rate * gW, b - cfg.learning_rate * gb)
                    continue
                mW, mb, vW, vb = moments[i]
                mW = b1 * mW + (1 - b1) * gW
                mb = b1 * mb + (1 - b1) * gb
                vW = b2 * vW + (1 - b2) * gW * gW
                vb = b2 * vb + (1 - b2) * gb * gb
                moments[i] = (mW, mb, vW, vb)
                c1 = 1 - b1 ** step
                c2 = 1 - b2 ** step
                layers[i] = (
                    W - cfg.learning_rate * (mW / c1) / (np.sqrt(vW / c2) + mlp.ADAM_EPS),
                    b - cfg.learning_rate * (mb / c1) / (np.sqrt(vb / c2) + mlp.ADAM_EPS),
                )
    return layers


def random_genotype_one_at_a_time(config, rng):
    """One uniformly random genome by five draws: its opcodes, each node's
    first input, each node's second input, the output genes, the constants.
    An input is a source below the node's ``input_choices``."""
    n_nodes = config.n_nodes
    cols = [config.node_column(j) for j in range(n_nodes)]
    choices = np.array([config.input_choices(c) for c in cols])
    genes = np.empty((n_nodes, 3), dtype=np.int64)
    genes[:, 0] = rng.integers(0, len(cgp.FUNCTION_SET), n_nodes)
    for slot in (1, 2):
        genes[:, slot] = rng.integers(0, choices)
    outputs = rng.integers(0, config.n_sources, config.n_outputs)
    constants = rng.uniform(-1.0, 1.0, config.n_constants)
    return cgp.Genotype(config, genes, outputs, constants)


def mutate_many_masked(g, n, per_gene_prob, rng):
    """n point-mutated copies of one genome by boolean-mask writes into an
    (n, n_nodes, 3) gene tensor: the same draws in the same order as
    ``cgp.mutate_many``.  One uniform per gene; the opcode hits, copy
    after copy, get new opcodes; then each input slot's hits get sources
    below their node's ``input_choices``; then each constant's Gaussian
    nudge and uniform redraw."""
    config = g.config
    cols = [config.node_column(j) for j in range(config.n_nodes)]
    choices = np.array([config.input_choices(c) for c in cols])
    genes = np.repeat(g.function_genes[None], n, axis=0)
    mask = rng.random(genes.shape) < per_gene_prob

    hit = mask[..., 0]
    genes[hit, 0] = rng.integers(0, len(cgp.FUNCTION_SET), int(hit.sum()))
    for slot in (1, 2):
        hit = mask[..., slot]
        genes[hit, slot] = rng.integers(0, choices[np.nonzero(hit)[1]])

    constants = np.repeat(g.constants[None], n, axis=0)
    if config.n_constants:
        nudge = rng.random(constants.shape) < per_gene_prob
        constants[nudge] += rng.normal(0.0, cgp.CONST_SIGMA, int(nudge.sum()))
        redraw = rng.random(constants.shape) < cgp.CONST_REDRAW * per_gene_prob
        constants[redraw] = rng.uniform(-1.0, 1.0, int(redraw.sum()))

    return cgp.phenotypes(config, genes,
                          np.broadcast_to(g.output_genes, (n, config.n_outputs)),
                          constants)


def random_net_genotype_one_at_a_time(n_inputs, widths, rng, n_rows, n_cols,
                                      n_constants):
    """One random network, its chromosomes drawn one after another by
    ``random_genotype_one_at_a_time``, affines at w=1, b=0."""
    chroms = []
    prev = n_inputs
    for i, width in enumerate(widths):
        cfg = cgp.CgpConfig(n_inputs=prev, n_rows=n_rows, n_cols=n_cols,
                            n_constants=n_constants)
        chroms.append(LayerChromosome(random_genotype_one_at_a_time(cfg, rng),
                                      AffineParams(np.ones(width), np.zeros(width)), i))
        prev = width
    return NetGenotype(tuple(chroms))


def _plain_div(a, b):
    small = np.abs(b) < cgp.DIV_EPS
    return np.where(small, a, a / np.where(small, 1.0, b))


def _plain_ln(a):
    absa = np.abs(a)
    zero = absa == 0
    return np.where(zero, cgp.LN_SENTINEL, np.log(np.where(zero, 1.0, absa)))


# The default function set's ops as plain expressions that make a new
# array, by name: the reference for the library's ops, which can also
# write into a given array.
PLAIN_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _plain_div,
    "sqrt": lambda a: np.sqrt(np.abs(a)),
    "square": lambda a: a * a,
    "sin": np.sin,
    "cos": np.cos,
    "ln": _plain_ln,
    "tan": lambda a: np.clip(np.tan(a), -cgp.CLAMP, cgp.CLAMP),
    "exp": lambda a: np.clip(np.exp(a), -cgp.CLAMP, cgp.CLAMP),
}
