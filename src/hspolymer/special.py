"""scipy's Kolmogorov law for `stats`; kept a module because perfbench traces it."""

from scipy.special import kolmogi, kolmogorov
