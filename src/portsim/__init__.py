"""Exact desk-scale simulator and verification suite for qubit port-based
teleportation.

The layers build on each other: exact spin arithmetic (`spinalg`, where
every spin is an int holding twice its value), the coupled basis (`schur`),
dense measurement oracles and their closed-form twins (`povm_oracle`,
`povm_analytic`), register-level circuits (`circuit`), and the four full
protocols with figures of merit and resource counts (`protocols`). The `portsim` console script fronts all of it.
"""

from .povm_analytic import analytic_povm, port_eigensystem
from .povm_oracle import PovmSet, build_povm
from .protocols import (
    ProtocolKind,
    SchurVariant,
    average_fidelity,
    build_program,
    entanglement_fidelity,
    resource_estimate,
    success_probability,
    success_probability_exact,
    teleport_batch,
)
from .schur import coupling_unitary, enumerate_labels
from .spinalg import Regime

__version__ = "0.1.0"

__all__ = [
    "PovmSet",
    "ProtocolKind",
    "Regime",
    "SchurVariant",
    "analytic_povm",
    "average_fidelity",
    "build_povm",
    "build_program",
    "coupling_unitary",
    "entanglement_fidelity",
    "enumerate_labels",
    "port_eigensystem",
    "resource_estimate",
    "success_probability",
    "success_probability_exact",
    "teleport_batch",
    "__version__",
]
