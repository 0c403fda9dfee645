"""Learning-free MoE compression from the topology of KL merge barriers.

Build a simplicial 2-complex over a layer's experts (edges carry pairwise
merge barriers, triangles carry triplet barriers), Hodge-decompose the
edge signal, and select survivors by greedy coverage of the
harmonic-critical edges and triplet-critical triangles.
"""

from .complexes import (Complex2, ComplexStructureError, EdgeSignal, SignedIncidence,
                        betti1, build_incidence, complete_edges, edge_laplacian,
                        kernel_dimension, random_complex)
from .hodge import HodgeDecomp, decompose, residual_certificate
from .moe import (BarrierTable, CalibCorpus, MoeLayer, barrier_sweep, compression_loss,
                  plant_discordant_triple, routing_frequencies, saliency, synth_layer)
from .builder import FiltrationResult, stage_a_candidates, stage_b_filtration
from .selector import (CoverageInstance, LayerBudget, SurvivorPlan, allocate_uniform,
                       allocate_weighted, build_coverage, greedy_select, phi, redirect,
                       select_ablation, select_random)
from .wanda import PruneMask, prune_survivors, residual_sparsity, wanda_prune
from .diagnostics import (LayerDiagnostics, RetainedMass, diagnose_model, discordance,
                          retained_mass)
from .pipeline import LayerAnalysis, SelectorParams, analyze_layer, compress_model, plan_layer

__version__ = "0.1.0"
