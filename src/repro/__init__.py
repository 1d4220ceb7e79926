"""WhoWas: a platform for measuring web deployments on IaaS clouds.

Reproduction of Wang et al., IMC 2014.  See :mod:`repro.core` for the
measurement platform, :mod:`repro.cloudsim` for the simulated IaaS
substrate, :mod:`repro.analysis` for the analysis engines, and
:mod:`repro.workloads` for ready-made scenarios and campaign drivers.
"""

__version__ = "1.0.0"
