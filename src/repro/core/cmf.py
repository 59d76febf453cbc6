"""Collective Matrix Factorization with alternating SGD (Section 3.3).

The paper completes the sparse target workload-label matrix U* by
factorizing three matrices over a **shared label-factor matrix** L
(Singh & Gordon's CMF):

    U  ≈ A  Lᵀ   (source workload-label knowledge)
    V  ≈ B  Lᵀ   (VM-label knowledge)
    U* ≈ A* Lᵀ   (target workload-label, observed entries only)

minimising (Equation 6)

    λ‖U − A Lᵀ‖²_F + (1 − λ)‖V − B Lᵀ‖²_F + μ‖M ⊙ (U* − A* Lᵀ)‖²_F + R(·)

where M masks the entries actually observed from the sandbox/probe runs
and R is an L2 ridge.  λ (the paper uses 0.75) trades source-knowledge
fidelity against VM-knowledge fidelity; because L is shared, the completed
row ``A* Lᵀ`` inherits structure from both.

Optimisation follows Algorithm 1 lines 7–11: iterate, fixing all factor
matrices but one and taking SGD steps on the remaining one, until the
objective converges.  Updates are row-wise vectorized minibatch SGD; the
paper cites an O(n log n) worst-case cost for convergence, and
non-convergence (its Spark-CF case) is surfaced as
:class:`~repro.errors.ConvergenceError` unless ``raise_on_divergence``
is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, ValidationError

__all__ = ["CMF", "CMFResult", "SourceFactors"]


@dataclass(frozen=True)
class SourceFactors:
    """Offline half of the factorization: A, B and the shared L.

    Produced once per knowledge fit by :meth:`CMF.factor_sources` (no
    target rows involved), persisted like any other pipeline stage, and
    consumed online by :meth:`CMF.fold_in` to complete target rows
    without re-running SGD over the full source knowledge.
    """

    A: np.ndarray
    B: np.ndarray
    L: np.ndarray
    converged: bool


@dataclass(frozen=True)
class CMFResult:
    """Fitted factors and diagnostics.

    ``completed_ustar`` is the dense reconstruction ``A* Lᵀ`` — the "full
    representation of U* in matrix space" of Algorithm 1 line 12.
    """

    A: np.ndarray
    B: np.ndarray
    Astar: np.ndarray
    L: np.ndarray
    objective_history: np.ndarray
    converged: bool

    @property
    def completed_ustar(self) -> np.ndarray:
        return self.Astar @ self.L.T

    @property
    def reconstructed_u(self) -> np.ndarray:
        return self.A @ self.L.T

    @property
    def reconstructed_v(self) -> np.ndarray:
        return self.B @ self.L.T


class CMF:
    """Collective matrix factorizer.

    Parameters
    ----------
    latent_dim:
        Latent feature count *g* shared by all factors.
    lam:
        The paper's λ tradeoff between the U and V reconstruction terms
        (0.75 per Section 5.3).
    target_weight:
        μ weight of the masked U* term.
    reg:
        L2 ridge strength R(·).
    lr:
        SGD learning rate.
    max_epochs, tol:
        Convergence control: stop when the relative objective improvement
        over a window falls below ``tol``; flag non-convergence otherwise.
    seed:
        RNG seed for initialization and minibatch order.
    raise_on_divergence:
        Raise :class:`ConvergenceError` when the optimizer fails to
        converge (the paper's Spark-CF behaviour); when ``False`` the
        unconverged result is returned with ``converged=False``.
    """

    def __init__(
        self,
        latent_dim: int = 8,
        *,
        lam: float = 0.75,
        target_weight: float = 1.0,
        reg: float = 0.02,
        lr: float = 0.08,
        max_epochs: int = 2000,
        tol: float = 2e-4,
        seed: int = 0,
        raise_on_divergence: bool = False,
    ) -> None:
        if latent_dim < 1:
            raise ValidationError("latent_dim must be >= 1")
        if not 0.0 <= lam <= 1.0:
            raise ValidationError(f"lam must be in [0, 1], got {lam}")
        if target_weight < 0 or reg < 0 or lr <= 0:
            raise ValidationError("target_weight/reg must be >= 0 and lr > 0")
        if max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        self.latent_dim = latent_dim
        self.lam = lam
        self.target_weight = target_weight
        self.reg = reg
        self.lr = lr
        self.max_epochs = max_epochs
        self.tol = tol
        self.seed = seed
        self.raise_on_divergence = raise_on_divergence

    # -- objective ---------------------------------------------------------------

    def _objective(
        self,
        U: np.ndarray,
        V: np.ndarray,
        Ustar: np.ndarray,
        mask: np.ndarray,
        A: np.ndarray,
        B: np.ndarray,
        Astar: np.ndarray,
        L: np.ndarray,
    ) -> float:
        ru = U - A @ L.T
        rv = V - B @ L.T
        rs = mask * (Ustar - Astar @ L.T)
        reg = self.reg * (
            (A**2).sum() + (B**2).sum() + (Astar**2).sum() + (L**2).sum()
        )
        return float(
            self.lam * (ru**2).sum()
            + (1.0 - self.lam) * (rv**2).sum()
            + self.target_weight * (rs**2).sum()
            + reg
        )

    # -- fitting ---------------------------------------------------------------------

    def fit(
        self,
        U: np.ndarray,
        V: np.ndarray,
        Ustar: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> CMFResult:
        """Factorize ``U`` (i×j), ``V`` (k×j), ``Ustar`` (n×j) over shared L.

        ``mask`` marks the observed entries of ``Ustar`` (1 = observed);
        ``None`` treats every entry as observed.
        """
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        Ustar = np.asarray(Ustar, dtype=float)
        if U.ndim != 2 or V.ndim != 2 or Ustar.ndim != 2:
            raise ValidationError("U, V and Ustar must all be 2-D")
        j = U.shape[1]
        if V.shape[1] != j or Ustar.shape[1] != j:
            raise ValidationError(
                f"label dimension mismatch: U has {j}, V has {V.shape[1]}, "
                f"Ustar has {Ustar.shape[1]}"
            )
        if mask is None:
            mask = np.ones_like(Ustar)
        mask = np.asarray(mask, dtype=float)
        if mask.shape != Ustar.shape:
            raise ValidationError(
                f"mask shape {mask.shape} != Ustar shape {Ustar.shape}"
            )

        # Gradient steps can diverge for extreme λ / badly-scaled inputs;
        # restart with a halved learning rate when the objective blows up.
        # Overflow during a diverging attempt is expected and detected via
        # the non-finite objective, so the warnings are suppressed.
        lr = self.lr
        for _attempt in range(6):
            with np.errstate(over="ignore", invalid="ignore"):
                result = self._fit_once(U, V, Ustar, mask, lr)
            if result is not None:
                break
            lr *= 0.5
        else:
            raise ConvergenceError(
                "CMF diverged even after learning-rate backoff; inputs may be "
                "badly scaled"
            )

        history, A, B, Astar, L, converged = result
        if not converged and self.raise_on_divergence:
            raise ConvergenceError(
                f"CMF did not converge in {self.max_epochs} epochs "
                f"(objective {history[-1]:.4g})"
            )
        return CMFResult(
            A=A,
            B=B,
            Astar=Astar,
            L=L,
            objective_history=np.asarray(history),
            converged=converged,
        )

    def factor_sources(self, U: np.ndarray, V: np.ndarray) -> SourceFactors:
        """Factorize the source knowledge alone: U ≈ A Lᵀ, V ≈ B Lᵀ.

        The offline half of the online/offline split minimises the
        source terms of Equation 6 (the masked U* term has no rows yet)

            λ‖U − A Lᵀ‖² + (1 − λ)‖V − B Lᵀ‖² + reg(‖A‖² + ‖B‖² + ‖L‖²)

        by exact alternating least squares: each factor update is a
        closed-form ridge solve given the others, so the objective
        decreases monotonically — no learning rate, no SGD noise, and
        reliable convergence at sizes where minibatch SGD oscillates.
        The SGD path is kept for :meth:`fit`, whose per-target joint
        refinement is the paper-faithful reproduction semantics.
        """
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        if U.ndim != 2 or V.ndim != 2:
            raise ValidationError("U and V must be 2-D")
        j = U.shape[1]
        if V.shape[1] != j:
            raise ValidationError(
                f"label dimension mismatch: U has {j}, V has {V.shape[1]}"
            )
        g = self.latent_dim
        rng = np.random.default_rng(self.seed)
        L = rng.normal(0.0, 1.0 / np.sqrt(g), size=(j, g))
        eye = np.eye(g)
        A = np.zeros((U.shape[0], g))
        B = np.zeros((V.shape[0], g))

        def objective() -> float:
            return float(
                self.lam * ((U - A @ L.T) ** 2).sum()
                + (1.0 - self.lam) * ((V - B @ L.T) ** 2).sum()
                + self.reg * ((A**2).sum() + (B**2).sum() + (L**2).sum())
            )

        prev = np.inf
        converged = False
        for _iter in range(self.max_epochs):
            gram_l = L.T @ L
            A = np.linalg.solve(
                self.lam * gram_l + eye * self.reg, self.lam * (L.T @ U.T)
            ).T
            B = np.linalg.solve(
                (1.0 - self.lam) * gram_l + eye * self.reg,
                (1.0 - self.lam) * (L.T @ V.T),
            ).T
            L = np.linalg.solve(
                self.lam * (A.T @ A) + (1.0 - self.lam) * (B.T @ B) + eye * self.reg,
                self.lam * (A.T @ U) + (1.0 - self.lam) * (B.T @ V),
            ).T
            obj = objective()
            if np.isfinite(prev) and prev > 0 and (prev - obj) / prev < self.tol:
                converged = True
                break
            prev = obj
        return SourceFactors(A=A, B=B, L=L, converged=converged)

    def fold_in(
        self,
        L: np.ndarray,
        ustar_rows: np.ndarray,
        mask: np.ndarray | None = None,
        *,
        operator_cache=None,
    ) -> np.ndarray:
        """Complete target rows against a fixed L: the online half.

        With L frozen, each target row of Equation 6 decouples into an
        independent masked ridge least-squares problem

            a*ᵢ = argminₐ μ‖mᵢ ⊙ (u*ᵢ − a Lᵀ)‖² + reg‖a‖²
                = (μ Lᵀ diag(mᵢ) L + reg·I)⁻¹ μ Lᵀ (mᵢ ⊙ u*ᵢ)

        solved exactly in O(g³) per row — deterministic, no SGD, no
        iteration.  Rows are independent, so completing a batch is
        bit-identical to completing each row alone.

        Steady-state serving traffic reuses a tiny set of probe masks,
        and the gram matrix depends on the mask alone (L and the
        hyperparameters are fixed), so rows are grouped by identical
        mask bit-pattern: each group builds its gram once and all its
        rows are solved in one stacked LAPACK call — byte-identical to
        the per-row loop because the gufunc solves each row as its own
        1-D system.  ``operator_cache`` (an
        :class:`~repro.core.caching.LRUCache`) persists grams across
        calls keyed by mask bytes; callers must scope it to one
        ``(L, hyperparameters)`` pair — :class:`VestaSelector` keys it
        to the ``source_factors`` artifact, so a refit or hot-reload
        starts from an empty cache by construction.  The per-row loop
        (``_fold_in_row_loop``) is kept as the reference tests pin this
        path against.

        Returns the stacked ``A*`` with shape ``(n_rows, latent_dim)``.
        """
        L = np.asarray(L, dtype=float)
        ustar_rows = np.asarray(ustar_rows, dtype=float)
        if L.ndim != 2 or ustar_rows.ndim != 2:
            raise ValidationError("L and ustar_rows must be 2-D")
        if L.shape[1] != self.latent_dim:
            raise ValidationError(
                f"L has latent dim {L.shape[1]}, expected {self.latent_dim}"
            )
        if ustar_rows.shape[1] != L.shape[0]:
            raise ValidationError(
                f"ustar_rows has {ustar_rows.shape[1]} labels, "
                f"L covers {L.shape[0]}"
            )
        if mask is None:
            mask = np.ones_like(ustar_rows)
        mask = np.asarray(mask, dtype=float)
        if mask.shape != ustar_rows.shape:
            raise ValidationError(
                f"mask shape {mask.shape} != ustar_rows shape {ustar_rows.shape}"
            )
        return self._fold_in_grouped(L, ustar_rows, mask, operator_cache)

    def _fold_in_row_loop(
        self, L: np.ndarray, ustar_rows: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """The reference implementation: one gram + one solve per row."""
        g = self.latent_dim
        eye = self.reg * np.eye(g)
        astar = np.empty((ustar_rows.shape[0], g))
        for i in range(ustar_rows.shape[0]):
            weighted = L * mask[i][:, None]
            gram = self.target_weight * (weighted.T @ L) + eye
            rhs = self.target_weight * (L.T @ (mask[i] * ustar_rows[i]))
            try:
                astar[i] = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                astar[i] = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        return astar

    def _fold_in_grouped(
        self,
        L: np.ndarray,
        ustar_rows: np.ndarray,
        mask: np.ndarray,
        operator_cache,
    ) -> np.ndarray:
        g = self.latent_dim
        eye = self.reg * np.eye(g)
        astar = np.empty((ustar_rows.shape[0], g))
        groups: dict[bytes, list[int]] = {}
        for i in range(ustar_rows.shape[0]):
            groups.setdefault(mask[i].tobytes(), []).append(i)
        for key, indices in groups.items():
            gram = None if operator_cache is None else operator_cache.get(key)
            if gram is None:
                # Same expression, same operand order as the row loop —
                # "byte-identical" hinges on it.
                weighted = L * mask[indices[0]][:, None]
                gram = self.target_weight * (weighted.T @ L) + eye
                if operator_cache is not None:
                    gram.setflags(write=False)
                    operator_cache.put(key, gram)
            rhs = np.empty((len(indices), g))
            for row, i in enumerate(indices):
                rhs[row] = self.target_weight * (L.T @ (mask[i] * ustar_rows[i]))
            try:
                # Broadcasting the gram over a stack of 1-column systems
                # makes LAPACK solve each row as its own 1-D problem —
                # bit-identical to the row loop, unlike a true multi-RHS
                # solve against an (g, n) matrix.
                solved = np.linalg.solve(
                    np.broadcast_to(gram, (len(indices), g, g)),
                    rhs[:, :, None],
                )[:, :, 0]
            except np.linalg.LinAlgError:
                solved = np.stack(
                    [
                        np.linalg.lstsq(gram, rhs[row], rcond=None)[0]
                        for row in range(len(indices))
                    ]
                )
            astar[indices] = solved
        return astar

    def _fit_once(
        self,
        U: np.ndarray,
        V: np.ndarray,
        Ustar: np.ndarray,
        mask: np.ndarray,
        lr: float,
    ):
        """One optimization attempt at learning rate ``lr``.

        Returns ``None`` when the objective becomes non-finite (diverged).
        """
        j = U.shape[1]
        g = self.latent_dim
        rng = np.random.default_rng(self.seed)
        scale = 1.0 / np.sqrt(g)
        A = rng.normal(0.0, scale, size=(U.shape[0], g))
        B = rng.normal(0.0, scale, size=(V.shape[0], g))
        Astar = rng.normal(0.0, scale, size=(Ustar.shape[0], g))
        L = rng.normal(0.0, scale, size=(j, g))

        history = [self._objective(U, V, Ustar, mask, A, B, Astar, L)]
        converged = False
        window = 8
        rising = 0
        for _epoch in range(self.max_epochs):
            # Algorithm 1, lines 8-10: fix all factors but one, take an SGD
            # step on the remaining one.  Row-wise gradients, vectorized.

            # Update Astar (fix L): grad = -2 μ (M⊙R*) L + 2 reg Astar
            rs = mask * (Ustar - Astar @ L.T)
            Astar += lr * (self.target_weight * rs @ L - self.reg * Astar)

            # Update A (fix L)
            ru = U - A @ L.T
            A += lr * (self.lam * ru @ L - self.reg * A)

            # Update B (fix L)
            rv = V - B @ L.T
            B += lr * ((1.0 - self.lam) * rv @ L - self.reg * B)

            # Update L (fix A, B, Astar)
            ru = U - A @ L.T
            rv = V - B @ L.T
            rs = mask * (Ustar - Astar @ L.T)
            grad_L = (
                self.lam * ru.T @ A
                + (1.0 - self.lam) * rv.T @ B
                + self.target_weight * rs.T @ Astar
                - self.reg * L
            )
            L += lr * grad_L

            obj = self._objective(U, V, Ustar, mask, A, B, Astar, L)
            if not np.isfinite(obj):
                return None  # diverged at this learning rate
            history.append(obj)
            # An epoch where the objective rose is never progress; a
            # sustained rise is a (finite) divergence, not convergence —
            # without this, an oscillating-upward run would satisfy
            # `(past - obj) / past < tol` through its negative
            # "improvement" and be declared converged, silently skipping
            # the paper's Spark-CF non-convergence fallback.
            rising = rising + 1 if obj > history[-2] else 0
            if rising >= window:
                break  # objective has risen for a whole window: diverging
            if len(history) > window:
                past = history[-window - 1]
                improvement = (past - obj) / past if past > 0 else 0.0
                if past > 0 and 0.0 <= improvement < self.tol:
                    converged = True
                    break

        return history, A, B, Astar, L, converged
