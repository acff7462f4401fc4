"""Exact combinatorics of weighted lattice paths in (p,p') band models."""

from .qpoly import QPoly, div_exact, gaussian, gaussian_modified
from .model import (
    Model, TakahashiData, continued_fraction, continued_fraction_digits,
    format_model_tables,
)
from .paths import (
    Path, PathStats, PostSeg, StrikingSequence, Wings, chi, chi_tilde,
    chi_tilde_by_m, chi_tilde_restricted, classify_vertex,
    iter_height_seqs, path_from_json, path_stats,
    path_to_json, postseg_path, striking_sequence,
    weight_from_striking, weight_wt, weight_wtilde, wings_path,
)
from .transforms import (
    BijectionReport, TransformError, b1, b1_inverse, b2, b3, b_transform,
    bd_transform, d_transform, decompose, extend_left, extend_right,
    truncate_left, truncate_right, verify_b_bijection, verify_bd_bijection,
)
from .characters import (
    FermionicSystem, GammaTrace, MnSolution, bosonic, build_system, c_from_b,
    c_from_b_info, fermionic_classical, fermionic_modified, fermionic_terms,
    flat_sharp, groundstate_label, mn_solutions, partition_series,
    rocha_caridi_truncated,
)

__version__ = "0.1.0"
