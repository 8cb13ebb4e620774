"""Simulation and verification toolkit for half-space polymer models.

Submodules
----------
rng            Seeded, splittable random streams.
special        Digamma and trigamma used by the inverse-gamma log-moments.
distributions  Samplers and CDFs for the four weight laws.
stats          KS tests, moment comparisons, suite evaluation with retries.
lattice        The octant model for every weight law: parameter layout,
               weights, the row sweep and its oracles, and the one- and
               two-row stationary increments.
stationary     Discrete and continuum stationary boundary processes.
lpp            Zero-temperature (last passage) laws on that model.
she            Reflected-walk partition functions, the scaled sheet as a
               (T, Y) table, and the Robin heat kernel.
scaling        Intermediate-disorder scaling and the matching identity.
experiments    Named, seeded experiment catalog behind the CLI.
"""

__version__ = "0.1.0"
