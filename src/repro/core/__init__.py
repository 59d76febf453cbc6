"""Vesta — the paper's primary contribution.

- :mod:`repro.core.labels` — correlation-interval label universe and soft
  workload-label memberships;
- :mod:`repro.core.graph` — the two-layer bipartite knowledge graph
  (Figure 4);
- :mod:`repro.core.cmf` — Collective Matrix Factorization with
  alternating SGD (Equation 6, Algorithm 1 lines 7–11);
- :mod:`repro.core.sandbox` — sandbox + random probe VM choice for online
  initialization (Section 4.2);
- :mod:`repro.core.predictor` — runtime prediction by label-space
  similarity with probe-run fingerprint scaling;
- :mod:`repro.core.vesta` — :class:`~repro.core.vesta.VestaSelector`,
  the end-to-end offline-fit / online-select system (Algorithm 1);
- :mod:`repro.core.lifecycle` — continual knowledge updating
  (Section 4.2's "continually update the model"): served sessions grow
  the knowledge through :meth:`~repro.core.vesta.VestaSelector.promote`,
  gated by measured transfer;
- :mod:`repro.core.cluster_sizing` — joint (VM type, cluster size)
  selection, the Table-1 iteration-to-parallelism extension.
"""

from repro.core.artifacts import Artifact, ArtifactInfo, ArtifactStore
from repro.core.cluster_sizing import ClusterChoice, ClusterSizer
from repro.core.cmf import CMF, CMFResult
from repro.core.graph import KnowledgeGraph
from repro.core.labels import LabelSpace
from repro.core.pipeline import KnowledgePipeline, StageResult
from repro.core.predictor import SimilarityPredictor
from repro.core.sandbox import choose_probe_vms, choose_sandbox_vm
from repro.core.vesta import OnlineSession, Recommendation, VestaSelector
from repro.core.persistence import load_selector, save_selector

__all__ = [
    "load_selector",
    "save_selector",
    "Artifact",
    "ArtifactInfo",
    "ArtifactStore",
    "KnowledgePipeline",
    "StageResult",
    "CMF",
    "ClusterChoice",
    "ClusterSizer",
    "CMFResult",
    "KnowledgeGraph",
    "LabelSpace",
    "OnlineSession",
    "Recommendation",
    "SimilarityPredictor",
    "VestaSelector",
    "choose_probe_vms",
    "choose_sandbox_vm",
]
