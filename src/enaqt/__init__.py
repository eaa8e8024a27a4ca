"""Energy transport of a single excitation on tight-binding networks.

Simulates the open-system quantum walk of one excitation on binary trees,
hypercubes and arbitrary graphs: coherent hopping plus pure dephasing,
uniform recombination loss and irreversible capture at a trap site. The
central quantity is the transport efficiency, the total probability that
the excitation is captured rather than lost.

The package namespace holds the names of the README's library example;
everything else is imported from its submodule (``enaqt.dynamics``,
``enaqt.ensemble``, ``enaqt.analysis``, ``enaqt.graph``, ``enaqt.model``).
"""

from .dynamics import efficiency_liouvillian
from .ensemble import SweepGrid, run_sweep
from .graph import build_binary_tree
from .model import LEAF_MIXTURE, TransportModel, initial_state

__version__ = "0.1.0"

__all__ = [
    "LEAF_MIXTURE", "SweepGrid", "TransportModel", "build_binary_tree",
    "efficiency_liouvillian", "initial_state", "run_sweep",
]
