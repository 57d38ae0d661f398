"""Desk-scale simulation and inference for trapped-ion fluorescence readout
with a chip-integrated single-photon avalanche diode.

The package root loads no layer: import what you use from its module, for
example ``from spadsim.simulator import simulate_stream``.
"""

__version__ = "0.1.0"
