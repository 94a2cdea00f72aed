"""Dense reference objects that kerramp itself never builds."""

import dataclasses

import numpy as np

from kerramp import fock, su11


def pair_lowering(layout, modes):
    """A = b b / 2 on one mode or b c on two, from the kron-embedded ladders."""
    b = fock.annihilation(layout, modes[0]).matrix
    if len(modes) == 1:
        return b @ b / 2
    return b @ fock.annihilation(layout, modes[1]).matrix


def dense_generators(layout, representation):
    """su11.generators(layout, representation) with its G1, G2 and G3 as
    dense matrices: G1 = (A + A†) Z_a and G2 = i (A - A†), with A = b b / 2
    (fock-single) or b c (fock-two-mode), and G3 = diag(su11._g3_values)."""
    gens = su11.generators(layout, representation)  # checks the layout
    A = pair_lowering(layout, (1,) if representation == "fock-single" else (1, 2))
    n = np.unravel_index(np.arange(layout.total_dim), layout.dims)
    z = 2.0 * n[0] - 1.0
    return dataclasses.replace(
        gens,
        g1=(A + A.conj().T) * z,  # times diag(Z_a): scale the columns
        g2=1j * (A - A.conj().T),
        g3=np.diag(su11._g3_values(representation, n)),
    )


def eye_parity_blocks(layout, squeezers):
    """fock.parity_blocks as each parity ladder's exponential times the
    identity: a product of the ladder's eigenbasis against np.eye(size)."""
    box = (layout.dims[squeezers[0].modes[0]],)
    ladders = [
        (fock._ladder_eig(coupling), np.eye(size, dtype=complex))
        for _, size, _, coupling in fock._sectors(box, box)
    ]
    return {
        s: tuple(fock._ladder_exp(eig, s.theta, eye) for eig, eye in ladders)
        for s in dict.fromkeys(squeezers)
    }
