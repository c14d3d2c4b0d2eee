"""Empty: the Painleve II table is solved on each use, so nothing is cached.

The benchmark's traced CLI child (``perfbench/cli_child.py``) imports this
module before it installs its tracer, so the module stays until that
harness is refreshed (ROADMAP item 1), as ``errors.TruncationError`` stays
for ``perfbench/checks.py``.
"""
