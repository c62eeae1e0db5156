"""Physical constants in SI units, CODATA 2022.

Mohr et al., "CODATA recommended values of the fundamental physical
constants: 2022", Rev. Mod. Phys. (2025). The values equal those of
``scipy.constants`` from scipy 1.15 on (the tests check this). They are
kept here so that the package needs only numpy at run time and its outputs
do not change with the installed scipy, whose older releases carry CODATA
2018.
"""

import math

c = 299792458.0                  # m/s, speed of light in vacuum (exact)
h = 6.62607015e-34               # J s, Planck constant (exact)
hbar = h / (2 * math.pi)         # J s
epsilon_0 = 8.8541878188e-12     # F/m, vacuum electric permittivity
k = 1.380649e-23                 # J/K, Boltzmann constant (exact)
atomic_mass = 1.66053906892e-27  # kg, atomic mass constant
