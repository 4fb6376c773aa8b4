"""Desk-scale laboratory for rho-variation operators of approximate
identities on weighted spaces: operators, norms, sparse domination, and a
batch experiment harness."""

from .atoms import Atom, AtomConstructionError, Ball, make_atom, sgn_atom
from .grid import (Domain1D, GridFunction, KernelSpec, ResolutionError,
                   ScaleFamily, convolve_family, eval_kernel_dilated, lp_norm,
                   weak_l1_norm)
from .harness import (ExperimentConfig, RatioTable, battery_generate,
                      parse_config, run_experiment)
from .lattice import (DyadicLattice, cube_domain_ranges, default_lattices,
                      hl_maximal, max_aligned_depth)
from .oscillation import (EquivalenceReport, TailNormReport,
                          WitnessPlacementError, WitnessResult,
                          bmo_nu_equivalence, bmo_nu_norm, cal_bmo_omega_norm,
                          cube_measures, cube_oscillations, is_median,
                          local_mean_oscillation, median, oscillation_witness)
from .sparse import (DominationReport, SparseConstructionError, SparseFamily,
                     SparseReport, build_sparse_family, domination_check,
                     sparse_commutator, sparse_commutator_star, sparse_operator,
                     validate_sparse)
from .variation import (VariationProfile, commutator_family,
                        commutator_variation, kernel_difference_variation,
                        seq_variation_bruteforce, seq_variation_dp,
                        variation_operator)
from .weights import (Weight, WeightConstants, a1_constant, ainf_constant,
                      ap_constant, bloom_weight, compute_constants,
                      power_weight)

__version__ = "0.1.0"
