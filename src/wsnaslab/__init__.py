"""Desk-scale weight-sharing NAS laboratory.

Small enough to enumerate, train, and rank an entire cell search space on a
CPU in minutes, while keeping the moving parts of full-scale weight sharing:
a shared-parameter super-net, single-path training, samplers, batch-norm
modes, dynamic channel handling, and rank-correlation metrics against an
exhaustive stand-alone benchmark.

The package itself exports nothing: import from its modules, as in
`from wsnaslab.supernet import build_supernet`.
"""
