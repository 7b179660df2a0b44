"""Phase-space distributions of the quantum kicked rotator.

Simulates the kicked rotator on a register of qubits, extracts its Wigner
and modified Husimi distributions the way a quantum processor would (register
pipeline, coarse-grained and ancilla measurements, amplitude amplification),
and quantifies localization directly and in a D4 wavelet basis.

Public names live in their modules (`from qphase import wigner`); the
package namespace holds only the modules and `__version__`.
"""

from . import analysis, errors, husimi, imageio, measurement, rotator, statevec, stdmap, wavelet, wigner

__version__ = "0.1.0"
