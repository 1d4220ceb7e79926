"""Simulated IaaS cloud substrate.

This subpackage stands in for the live EC2/Azure infrastructure the
paper measured: address spaces and regions (:mod:`addressing`,
:mod:`providers`), tenant services and their dynamics (:mod:`services`,
:mod:`population`, :mod:`simulation`), synthetic web content and software
stacks (:mod:`content`, :mod:`software`), the network face the WhoWas
scanner probes (:mod:`network`), EC2-style DNS (:mod:`dns`), and the
external blacklist services (:mod:`blacklist`).

Import from the submodules: the package re-exports nothing, so a
reader that needs only :mod:`addressing` does not load the simulator.
"""
