"""focktiles: exact abacus combinatorics of partition blocks.

The package computes z- and zhat-labellings of partitions, parallelotope
and hypercube tilings of blocks, and q-decomposition numbers via four
independent routes (closed formula, LLT algorithm, Rouquier-block
Littlewood-Richardson formula, and a Scopes-chain induction), all in
exact integer / Laurent-polynomial arithmetic.
"""

from .partitions import Partition, conjugate, dominance_leq, is_e_regular
from .laurent import LaurentPoly, quantum_int, quantum_factorial, bar_symmetric_split
from .abacus import (
    Abacus,
    BlockId,
    abacus_of,
    partition_of,
    core_quotient_weight,
    block_of,
    enumerate_block,
    crystal_E,
    crystal_F,
    weyl_s,
    add_full_runner,
    rouquier_charge,
    is_rouquier,
    scopes_chain,
)
from .labels import (
    BeadMovement,
    RimHook,
    movements,
    hooks_e,
    z_label,
    z_inverse,
    is_m_increasing,
    is_hook_quotient,
    modified_basis,
    succ_geq,
    hat_z,
    BlockContext,
)
from .fock import FockVector, apply_F, apply_E, pairing
from .beadops import (
    bead_target,
    bead_op,
    bead_op_kl,
    move_one,
    move_along,
    lambda_of_hook,
    mullineux_crystal,
    mullineux_fast,
)
from .polytope import Parallelotope, Tiling, pi_membership, d_closed, build_tiling, ext_adjacency, export_tiling
from .canonical import ladder_sequence, llt_G, lr_coefficient, rouquier_d, exceptional_family, inductive_G

__version__ = "0.1.0"
