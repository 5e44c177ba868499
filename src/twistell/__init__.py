"""Twisted elliptic special functions and torus fermion correlators.

Evaluates twisted Weierstrass/Eisenstein functions, Jacobi theta functions,
the elliptic prime form, closed-form Pfaffian/determinant correlators of
rank-one and rank-two free fermions, and machine-verifies the identities
tying them together (double-sum representations, modular covariance, the
Jacobi triple product, Fay-type trisecant identities and their block
generalization).
"""

from .classical import (
    dedekind_eta,
    eisenstein,
    p0,
    p0_batch,
    prime_form,
    theta_char,
    weierstrass_pk,
)
from .errors import (
    BalanceError,
    DomainError,
    NearPole,
    NotAntisymmetric,
    NotConverged,
    OddDimension,
    RouteUnavailable,
    TwistellError,
    UnsupportedTwist,
)
from .fermion import (
    FockLabelRank1,
    FockLabelRank2,
    GSelector,
    OrbifoldParams,
    alternating_sign,
    epsilon_S,
    epsilon_T,
    generator_word,
    lattice_npoint,
    modular_multiplier,
    p1_difference_matrix,
    rank1_fock_npoint,
    rank1_generating,
    rank1_partition,
    rank1_sigma_twisted_generating,
    rank2_fock_npoint,
    rank2_generating,
    rank2_generating_boson,
    rank2_partition,
    rank2_partition_theta,
    sigma_module_partition,
)
from .identities import (
    IdentityReport,
    SamplePlan,
    SUITE,
    run_all,
)
from .numeric import (
    DEFAULT_CONFIG,
    TruncationConfig,
    bernoulli_poly,
    binomial,
    determinant,
    pfaffian,
    pfaffian_pair_sum,
    q_exp,
)
from .twisted import (
    GroupElement,
    TwistPair,
    coeff_C,
    coeff_D,
    gamma_act_point,
    gamma_act_twist,
    lattice_distance,
    twisted_eisenstein,
    twisted_eisenstein_batch,
    twisted_eisenstein_oracle,
    twisted_eisenstein_oracle_batch,
    twisted_pk,
    twisted_pk_batch,
    twisted_pk_oracle,
    twisted_pk_oracle_batch,
)

__version__ = "0.1.0"
