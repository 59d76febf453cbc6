"""The two-layer bipartite knowledge graph (Figure 4, Section 3.2).

Three node sets — workloads X ∪ X*, labels L, VM types T — and two edge
layers:

- the **workload-label layer** G^(XL) (blue) and G^(X*L) (red): a workload
  connects to the labels its correlation values conform to;
- the **label-VM layer** G^(LT): a label connects to the VM types that
  serve workloads carrying it well.

The graph is a view over the matrices the CMF works on: a workload's
row of U (or U*) and the label-VM matrix V are the adjacency of the two
layers, an edge being an entry above :data:`_EDGE_EPS`.  Only the rows
and V are stored (:meth:`workload_label_matrix`, :meth:`label_vm_matrix`),
and every query reads them directly.
Knowledge = G^(XL) + G^(LT); reusing knowledge = G^(X*L) + G^(LT).
"""

from __future__ import annotations

import numpy as np

from repro.core.labels import LabelSpace
from repro.errors import ValidationError

__all__ = ["KnowledgeGraph"]

#: Matrix entries at or below this are not edges of the graph.
_EDGE_EPS = 1e-9


class KnowledgeGraph:
    """Bipartite workload-label-VM graph with matrix views.

    Parameters
    ----------
    label_space:
        The shared label universe.
    vm_names:
        VM type names (defines the T node set and V-matrix rows).
    """

    def __init__(self, label_space: LabelSpace, vm_names: tuple[str, ...]) -> None:
        if not vm_names:
            raise ValidationError("need at least one VM type")
        self.label_space = label_space
        self.vm_names = tuple(vm_names)
        self._source_rows: dict[str, np.ndarray] = {}
        self._target_rows: dict[str, np.ndarray] = {}
        self._v_matrix = np.zeros((len(self.vm_names), label_space.n_labels))

    # -- construction ------------------------------------------------------------

    def _add_workload(
        self, name: str, membership: np.ndarray, *, target: bool
    ) -> None:
        membership = np.asarray(membership, dtype=float)
        if membership.shape != (self.label_space.n_labels,):
            raise ValidationError(
                f"membership must have {self.label_space.n_labels} entries, "
                f"got {membership.shape}"
            )
        rows = self._target_rows if target else self._source_rows
        rows[name] = membership

    def add_source_workload(self, name: str, membership: np.ndarray) -> None:
        """Add a blue workload-label row (knowledge from X)."""
        self._add_workload(name, membership, target=False)

    def add_target_workload(self, name: str, membership: np.ndarray) -> None:
        """Add a red workload-label row (knowledge reuse for X*)."""
        self._add_workload(name, membership, target=True)

    def set_label_vm_matrix(self, V: np.ndarray) -> None:
        """Install the label-VM layer G^(LT) as a (vms, labels) matrix."""
        V = np.asarray(V, dtype=float)
        expected = (len(self.vm_names), self.label_space.n_labels)
        if V.shape != expected:
            raise ValidationError(f"V must be {expected}, got {V.shape}")
        self._v_matrix = V

    # -- matrix views ----------------------------------------------------------------

    def workload_label_matrix(self, *, target: bool = False) -> np.ndarray:
        """U (source) or U* (target) as a dense (workloads, labels) matrix."""
        rows = self._target_rows if target else self._source_rows
        if not rows:
            return np.zeros((0, self.label_space.n_labels))
        return np.vstack([rows[n] for n in self.workload_names(target=target)])

    def label_vm_matrix(self) -> np.ndarray:
        """V as a (vms, labels) matrix."""
        return self._v_matrix

    def workload_names(self, *, target: bool = False) -> tuple[str, ...]:
        rows = self._target_rows if target else self._source_rows
        return tuple(rows)

    # -- queries ----------------------------------------------------------------------

    def _row(self, workload: str) -> np.ndarray:
        """The label row of ``workload``; a target row shadows a source row."""
        row = self._target_rows.get(workload)
        if row is None:
            row = self._source_rows.get(workload)
        if row is None:
            raise ValidationError(f"unknown workload {workload!r}")
        return row

    def labels_of(self, workload: str) -> tuple[int, ...]:
        """Label ids adjacent to ``workload`` (either layer colour)."""
        return tuple(int(lid) for lid in np.flatnonzero(self._row(workload) > _EDGE_EPS))

    def shared_labels(self, a: str, b: str) -> tuple[int, ...]:
        """Labels both workloads conform to — the Figure 4 similarity cue."""
        return tuple(sorted(set(self.labels_of(a)) & set(self.labels_of(b))))

    def vm_affinity(self, workload: str) -> np.ndarray:
        """Per-VM affinity of a workload: its membership row through G^(LT).

        This is the two-hop walk workload → labels → VMs; higher means the
        paper's "the best VM types of them would have similar features".
        """
        return self._v_matrix @ self._row(workload)

    def similar_source_workloads(
        self, membership: np.ndarray, *, top: int = 5
    ) -> list[tuple[str, float]]:
        """Source workloads ranked by cosine similarity in label space."""
        membership = np.asarray(membership, dtype=float)
        names = self.workload_names(target=False)
        if not names:
            return []
        U = self.workload_label_matrix(target=False)
        norm_m = float(np.linalg.norm(membership))
        norms = np.linalg.norm(U, axis=1)
        denom = np.where(norms * norm_m > 0, norms * norm_m, 1.0)
        sims = U @ membership / denom
        order = np.argsort(sims)[::-1][:top]
        return [(names[i], float(sims[i])) for i in order]

    # -- stats ------------------------------------------------------------------------

    def edge_counts(self) -> dict[str, int]:
        """Edge tallies per layer, for reporting and tests."""

        def edges(rows: dict[str, np.ndarray]) -> int:
            return sum(int(np.count_nonzero(row > _EDGE_EPS)) for row in rows.values())

        return {
            "workload-label(source)": edges(self._source_rows),
            "workload-label(target)": edges(self._target_rows),
            "label-vm": int(np.count_nonzero(self._v_matrix > _EDGE_EPS)),
        }
