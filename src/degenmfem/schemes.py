"""One step function and one time-step loop for three linear schemes.

Each backward Euler step requires solving the nonlinear system

    <b(u^n) - b(u^{n-1}), w> + tau <div q^n, w> = tau <f^n, w>,
    <q^n, v> - <u^n, div v> = -<g_D, v.n>_boundary,

and all three schemes solve it with one loop, ``linearized_iterate``,
defined by its ``SchemeConfig`` alone: iteration i replaces the storage
term by

    w (u^i - u^{i-1}) + s(u^{i-1}),

where s is the storage function the scheme iterates on and w the
per-cell linearization weight:

* ``hl``     : s = b, the raw Holder function, and w = L = 1/delta
               chosen from the target tolerance;
* ``lreg``   : s = b_eps, the regularization (also in b_eps(u^{n-1}) on
               the right), and the constant w = L >= Lipschitz(b_eps)/2;
* ``newton`` : s = b_eps and w = b'_eps(u^{i-1}), which makes the
               scalar block iteration-dependent.

With a constant weight one matrix factorization, with its precomputed
solve operators, serves all iterations of all time steps; Newton's
weights change, so it reassembles and refactorizes every iteration, and
its solve forms q with u.  A constant-weight solve forms u alone and
keeps the unknowns x of its solve, and ``linear_system.flux`` forms q
from x, a product and no second solve, in two cases only: the
iterations of the increment rule's screen band (below), and once for
the final iterate.  The source functional
<f, w> is carried on the right-hand side of every scheme.  ``march`` is
the one time-step loop: the series driver and the benchmark's reference
stage both call it, and it holds the factorizations the constant-weight
steps share.

Stopping is either ``against_reference`` (L2 distance of the scalar
iterate to a supplied reference field drops below TOL) or
``increment`` (both the absolute sum ||du|| + ||dq|| and the relative
sum ||du||/||u|| + ||dq||/||q|| drop below TOL, with ||dq|| the M-norm
of the flux increment).  For a constant weight L every iterate solves
L|T| u_i + tau B q_i = rhs_i and M q_i - B^T u_i = g, so

    ||q_i - q_{i-1}||_M^2 = (du . (rhs_i - rhs_{i-1}) - L ||du||^2) / tau,

the energy identity of the L-scheme's convergence proof for mixed
elements (Pop-Radu-Knabner 2004, List-Radu 2016), from cell vectors
alone.  The sum it gives screens the decision: when it lies below
TOL (1 + ``SCREEN_MARGIN``), within a relative ``SCREEN_MARGIN`` of
``DIVERGENCE_THRESHOLD`` or is not finite, the sum is taken again from
the flux norms of both iterates' q, and that one decides, the relative
test included.  The cancellation in the identity costs digits near TOL
(measured up to 3.2e-4 TOL), far inside the margin, so every decision
is the one the flux norms give.  Newton keeps the flux norms.
Non-convergence is
reported, never raised: exceeding the iteration cap, error blow-up past
``DIVERGENCE_THRESHOLD``, and singular systems are distinguished in
``IterationReport.failure_reason``.

A single time series is strictly sequential; distinct runs are
independent and may execute in parallel against shared read-only forms.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from degenmfem.fem import AssembledForms, l2_norm_flux, l2_norm_scalar
from degenmfem.linear_system import (
    SingularSystemError,
    StaleFactorizationError,
    assemble,
    factorize,
    flux,
    solve,
)
from degenmfem.nonlinearity import (
    NonlinearitySpec,
    RegularizationSpec,
    b_eps,
    b_eps_prime,
    b_value,
)

SCHEME_KINDS = ("hl", "lreg", "newton")

DEFAULT_MAX_ITERATIONS = {"hl": 20_000, "lreg": 20_000, "newton": 50}

# Error norms beyond this (or non-finite) abort the step with
# failure_reason "divergence".
DIVERGENCE_THRESHOLD = 1e6

# A constant-weight increment computed from cell vectors decides alone
# only when it lies more than this relative margin above TOL and away
# from DIVERGENCE_THRESHOLD; it has been measured within 3.2e-4 TOL of
# the flux-based increment near TOL, so the margin leaves 300x headroom.
SCREEN_MARGIN = 0.1


@dataclass(frozen=True)
class StoppingCriterion:
    """Stopping rule for one time step's iteration.

    mode : "against_reference" or "increment"
    tol : the threshold TOL
    reference : scalar reference field (against_reference mode); may be
        filled in per time step by the series driver
    """

    mode: str
    tol: float
    reference: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("against_reference", "increment"):
            raise ValueError(f"unknown stopping mode {self.mode!r}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection and iteration parameters.

    kind : "hl", "lreg" or "newton"
    tau : time-step size
    stopping : StoppingCriterion
    nonlinearity : the raw Holder nonlinearity (hl only)
    regularization : the regularized nonlinearity (lreg and newton)
    L : stabilization parameter (hl and lreg)
    max_iterations : per-time-step cap; defaults to 50 for Newton and
        20000 for the L-type schemes
    """

    kind: str
    tau: float
    stopping: StoppingCriterion
    nonlinearity: NonlinearitySpec | None = None
    regularization: RegularizationSpec | None = None
    L: float | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"kind must be one of {SCHEME_KINDS}, got {self.kind!r}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.kind == "hl":
            if self.nonlinearity is None:
                raise ValueError("hl scheme requires a nonlinearity")
            if self.regularization is not None:
                raise ValueError("hl scheme does not regularize")
        elif self.regularization is None:
            raise ValueError(f"{self.kind} scheme requires a regularization")
        if self.kind == "newton":
            if self.L is not None:
                raise ValueError("newton scheme takes no L")
        elif self.L is None or not 0.0 < self.L < math.inf:
            raise ValueError(f"{self.kind} scheme requires a finite L > 0")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def storage_function(self):
        """The storage nonlinearity the scheme iterates on."""
        if self.kind == "hl":
            spec = self.nonlinearity
            return lambda u: b_value(spec, u)
        reg = self.regularization
        return lambda u: b_eps(reg, u)

    def weights_function(self):
        """Newton's per-cell weights b'_eps(u); None for a constant L."""
        if self.kind != "newton":
            return None
        reg = self.regularization
        return lambda u: b_eps_prime(reg, u)


@dataclass
class IterationReport:
    """Outcome of one time step's iteration.

    ``error_history`` holds, against a reference, the scalar error of
    the initial guess and of every iterate, and in increment mode the
    absolute increment sum from the second iterate on.  A constant
    weight records there the sum from cell vectors, except in the
    screen band, where it records the one from flux norms (see the
    module notes).
    """

    iterations_used: int
    converged: bool
    failure_reason: str | None = None
    error_history: list = field(default_factory=list)

    def __post_init__(self):
        if self.converged and self.failure_reason is not None:
            raise ValueError("a converged report cannot carry a failure reason")


@dataclass
class TimeStepResult:
    step: int
    t: float
    u: np.ndarray
    q: np.ndarray
    report: IterationReport


class _Stopping:
    """Tracks errors/increments and decides convergence and divergence.

    ``fact`` is the factorization of a constant-weight step, whose solve
    leaves q out and returns its unknowns x instead: the tracker forms q
    from x by ``flux`` only where a decision reads it, and
    takes the increments of the other iterations from cell vectors.
    Newton (``fact`` None) passes every q.
    """

    def __init__(self, forms, criterion, fact=None):
        self.forms = forms
        self.mesh = forms.mesh
        self.crit = criterion
        self.fact = fact
        self.error_history = []
        if criterion.mode == "against_reference" and criterion.reference is None:
            raise ValueError("against_reference stopping needs a reference field")
        # The last recorded iterate, the unknowns x of its constant-weight
        # solve and its flux, None until formed.
        self.u = self.x = self.q = None

    def record_initial(self, u):
        self.u = u
        if self.crit.mode == "against_reference":
            self.error_history.append(
                l2_norm_scalar(self.mesh, u - self.crit.reference))

    def last_flux(self):
        """q of the last recorded iterate, formed once when left out."""
        if self.q is None:
            self.q = flux(self.fact, self.x)
        return self.q

    def update(self, u_new, q_new):
        """Returns (converged, diverged) after recording the iterate
        (u_new, q_new); for a constant weight q_new is the unknowns x of
        its solve, whose first num_cells entries are its right-hand side
        (see ``linear_system.solve``)."""
        u_old, x_old, q_old = self.u, self.x, self.q
        if self.fact is None:
            self.q = q_new
        else:
            self.x, self.q = q_new, None
        self.u = u_new
        if self.crit.mode == "against_reference":
            err = l2_norm_scalar(self.mesh, u_new - self.crit.reference)
            self.error_history.append(err)
            if not math.isfinite(err) or err > DIVERGENCE_THRESHOLD:
                return False, True
            return err < self.crit.tol, False

        du_vec = u_new - u_old
        du = l2_norm_scalar(self.mesh, du_vec)
        if x_old is None and q_old is None:
            # No previous flux yet; increments start at the second solve.
            return False, not np.all(np.isfinite(u_new))
        tol = self.crit.tol
        if self.fact is not None:
            nc = u_new.size
            abs_sum = du + self._cheap_dq(du_vec, du,
                                          self.x[:nc] - x_old[:nc])
            limit = DIVERGENCE_THRESHOLD
            if (math.isfinite(abs_sum)
                    and abs_sum >= tol * (1.0 + SCREEN_MARGIN)
                    and abs(abs_sum - limit) > SCREEN_MARGIN * limit):
                # Far from both thresholds the cheap sum decides.
                self.error_history.append(abs_sum)
                return False, abs_sum > limit
            q_old = q_old if q_old is not None else flux(self.fact, x_old)
            q_new = self.last_flux()
        dq = l2_norm_flux(self.forms, q_new - q_old)
        abs_sum = du + dq
        self.error_history.append(abs_sum)
        if not math.isfinite(abs_sum) or abs_sum > DIVERGENCE_THRESHOLD:
            return False, True
        if abs_sum >= tol:
            # Both tests must pass; the relative norms cannot decide.
            return False, False
        norm_u = l2_norm_scalar(self.mesh, u_new)
        norm_q = l2_norm_flux(self.forms, q_new)
        rel_u = du / norm_u if norm_u > 0.0 else (0.0 if du == 0.0 else math.inf)
        rel_q = dq / norm_q if norm_q > 0.0 else (0.0 if dq == 0.0 else math.inf)
        return rel_u + rel_q < tol, False

    def _cheap_dq(self, du_vec, du, drhs):
        """||q_i - q_{i-1}||_M from cell vectors (see the module notes)."""
        system = self.fact.system
        energy = (np.dot(du_vec, drhs)
                  - system.weights[0] * du * du) / system.tau
        return math.sqrt(max(energy, 0.0))


def linearized_iterate(forms, config, storage_prev, u_init, f_n, fact=None):
    """One time step of the scheme ``config`` defines.

    Parameters
    ----------
    forms : AssembledForms
    config : SchemeConfig; it gives the storage function s and the
        weight w (the constant L, or b'_eps(u) for newton)
    storage_prev : per-cell values of s(u^{n-1})
    u_init : initial iterate, normally the previous time-step solution
    f_n : per-cell source density at the new time level
    fact : optional factorization of the constant-weight system (weights
        L, step tau), shared across time steps by ``march``; one built
        for another (L, tau) raises StaleFactorizationError.  Newton
        refactorizes every iteration and rejects any (ValueError).

    Returns (u, q, IterationReport); a singular system is reported as
    non-convergence, not raised.
    """
    tau = config.tau
    storage_fn = config.storage_function()
    weights_fn = config.weights_function()
    if weights_fn is None:
        w = config.L
        if fact is None:
            fact = factorize(assemble(forms, w, tau))
        elif fact.system.tau != tau or np.any(fact.system.weights != w):
            raise StaleFactorizationError(
                f"factorization was not built for (L, tau) = ({w:g}, {tau:g})")
    elif fact is not None:
        raise ValueError("newton refactorizes every iteration; "
                         "it takes no factorization")
    areas = forms.scalar_mass
    base = areas * (np.asarray(storage_prev, dtype=float) + tau * np.asarray(f_n, dtype=float))
    tracker = _Stopping(forms, config.stopping,
                        fact if weights_fn is None else None)
    u = np.array(u_init, dtype=float, copy=True)
    tracker.record_initial(u)

    converged = False
    reason = "max_iterations"
    cap = config.max_iterations or DEFAULT_MAX_ITERATIONS[config.kind]
    for iterations in range(1, cap + 1):
        try:
            if weights_fn is not None:
                w = weights_fn(u)
                fact = factorize(assemble(forms, w, tau))
            rhs_scalar = areas * (w * u - storage_fn(u)) + base
            u_new, q_new = solve(fact, rhs_scalar)
        except SingularSystemError:
            reason = "singular system"
            break
        converged, diverged = tracker.update(u_new, q_new)
        u = u_new
        if diverged:
            reason = "divergence"
            break
        if converged:
            break
    # A step whose first solve failed keeps a zero flux.
    q = (np.zeros(forms.num_edges) if tracker.x is None and tracker.q is None
         else tracker.last_flux())

    return u, q, IterationReport(
        iterations_used=iterations,
        converged=converged,
        failure_reason=None if converged else reason,
        error_history=tracker.error_history,
    )


# march calls the driver of config.kind through these module names, and
# per-layer tracing wraps them there.
hl_iterate = regularized_l_iterate = newton_iterate = linearized_iterate


def march(config, forms, u0, source_fn, n_steps, references=None,
          escalations=0):
    """March n_steps >= 1 backward Euler steps of constant size tau.

    Each step feeds the previous solution as the initial guess and as
    the storage right-hand-side term; ``source_fn(t_n, t_prev)`` returns
    the per-cell source density for the step ending at t_n, and
    ``references`` (if given) the scalar reference field each step stops
    against, at least n_steps of them.
    The driver of ``config.kind`` is looked up on this module per call,
    so a driver replaced on the module is the one run.

    A constant-L step that fails is retried with L quadrupled, up to
    ``escalations`` times; the next step starts again from
    ``config.L``.  One factorization per L serves the whole march.  The
    march stops at the first step that still fails.

    Returns a list of TimeStepResult, one per executed step.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if escalations and config.kind == "newton":
        raise ValueError("only a constant L can be escalated")
    if references is not None and len(references) < n_steps:
        raise ValueError(f"need {n_steps} references, got {len(references)}")
    storage_fn = config.storage_function()
    iterate = {"hl": hl_iterate, "lreg": regularized_l_iterate,
               "newton": newton_iterate}[config.kind]
    factorizations = {}

    results = []
    u_prev = np.asarray(u0, dtype=float)
    for n in range(1, n_steps + 1):
        t_n = n * config.tau
        f_n = source_fn(t_n, (n - 1) * config.tau)
        storage_prev = storage_fn(u_prev)
        step_config = config
        if references is not None:
            step_config = replace(config, stopping=replace(
                config.stopping, reference=references[n - 1]))
        for attempt in range(escalations + 1):
            if attempt:
                step_config = replace(step_config, L=4.0 * step_config.L)
            fact = ()
            if config.kind != "newton":
                big_l = step_config.L
                if big_l not in factorizations:
                    factorizations[big_l] = factorize(
                        assemble(forms, big_l, config.tau))
                fact = (factorizations[big_l],)
            u, q, report = iterate(forms, step_config, storage_prev, u_prev,
                                   f_n, *fact)
            if report.converged:
                break
        results.append(TimeStepResult(n, t_n, u, q, report))
        if not report.converged:
            break
        u_prev = u
    return results


def run_time_series(config, mesh, forms, u0, source_fn, n_steps,
                    references=None):
    """March n_steps steps of one scheme without L escalation.

    For against_reference stopping, ``references`` supplies one scalar
    reference field per step unless the criterion already carries one.
    The series stops at the first non-converged step (the whole run is
    then reported nc by the benchmark).  See ``march``.
    """
    if config.stopping.mode == "against_reference" and references is None \
            and config.stopping.reference is None:
        raise ValueError("series with against_reference stopping needs "
                         "per-step references")
    return march(config, forms, u0, source_fn, n_steps, references)


def total_iterations(results) -> int:
    return sum(r.report.iterations_used for r in results)


def series_converged(results, n_steps) -> bool:
    return len(results) == n_steps and all(r.report.converged for r in results)


def mass_balance_residual(forms: AssembledForms, storage_new, storage_prev,
                          q, tau, f_n):
    """Per-cell balance  |T| (b_new - b_prev) + tau (B q)_T - tau |T| f_T.

    Zero for the exact solution of the discrete step; for a scheme's
    converged iterate it sits at the stopping-residual scale.  The
    storage values must come from the nonlinearity the scheme actually
    iterated on (b or b_eps).
    """
    areas = forms.scalar_mass
    return (
        areas * (np.asarray(storage_new) - np.asarray(storage_prev))
        + tau * (forms.divergence @ np.asarray(q))
        - tau * areas * np.asarray(f_n)
    )
