"""Argument checks that refuse a call before anything is evaluated: each raises its own
error type with its own message."""

import re

import numpy as np
import pytest

from twistell.classical import _theta_chars, eisenstein
from twistell.errors import OddDimension
from twistell.fermion import (
    FockLabelRank2,
    OrbifoldParams,
    lattice_npoint,
    rank2_fock_npoint,
    rank2_generating,
)
from twistell.numeric import bernoulli_poly, determinant, pfaffian_pair_sum
from twistell.twisted import (
    GroupElement,
    TwistPair,
    coeff_C,
    coeff_D,
    twisted_eisenstein,
    twisted_eisenstein_oracle_batch,
    twisted_pk_oracle_batch,
)

TW = TwistPair(0.3, 0.7)
P = OrbifoldParams(0.3, 0.4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: eisenstein(1, 1j), ValueError, "eisenstein requires n >= 2"),
    (lambda: twisted_eisenstein(0, TW, 1j), ValueError, "twisted_eisenstein requires n >= 1"),
    (lambda: twisted_pk_oracle_batch(0, TW, [-0.5j], 1j), ValueError,
     "twisted_pk_oracle requires k >= 1"),
    (lambda: twisted_eisenstein_oracle_batch(0, TW, 1j), ValueError,
     "twisted_eisenstein_oracle requires n >= 1"),
    (lambda: coeff_C(1, 0, TW, 1j), ValueError, "coeff_C requires k, l >= 1"),
    (lambda: coeff_D(1, 0, TW, -0.5j, 1j), ValueError, "coeff_D requires k, l >= 1"),
    (lambda: GroupElement(1, 1, 1, 1), ValueError, "determinant must be 1, got [[1,1],[1,1]]"),
    (lambda: FockLabelRank2((1,), (0,)), ValueError, "ls must be >= 1, got (0,)"),
    (lambda: rank2_generating(P, [0.1, 0.2], [0.3], 1j), ValueError,
     "need equally many psi+ and psi- insertions"),
    (lambda: rank2_fock_npoint([((1,), (1,)), ((1,), (1,))], [0.1], P, 1j), ValueError,
     "labels and insertion points must pair up"),
    (lambda: lattice_npoint(P, [1, 1], [0.1], [2], [0.3], 1j), ValueError,
     "charges and points must pair up"),
    (lambda: lattice_npoint(P, [0], [0.1], [0], [0.3], 1j), ValueError,
     "lattice charges must be positive integers"),
    (lambda: bernoulli_poly(-1, 0.3), ValueError, "bernoulli_poly requires n >= 0"),
    (lambda: pfaffian_pair_sum(np.zeros((3, 3))), OddDimension,
     "pfaffian needs even dimension, got 3"),
    (lambda: determinant(np.zeros((2, 3))), ValueError,
     "expected a square matrix, got shape (2, 3)"),
], ids=["eisenstein_n1", "twisted_eisenstein_n0", "pk_oracle_batch_k0",
        "eisenstein_oracle_batch_n0", "coeff_C_l0", "coeff_D_l0", "group_element_det",
        "fock_label_mode_0", "rank2_generating_counts", "rank2_fock_labels",
        "lattice_charge_count", "lattice_zero_charge", "bernoulli_n_negative",
        "pair_sum_odd", "determinant_not_square"])
def test_argument_checks_refuse(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_theta_chars_of_no_points_is_empty():
    out = _theta_chars(0.2, 0.3, [], 1j)
    assert out.shape == (0,) and out.dtype == complex
