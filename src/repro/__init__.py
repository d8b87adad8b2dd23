"""repro — an executable theory of redo recovery.

This library reproduces *A Theory of Redo Recovery* (David Lomet and Mark
Tuttle, SIGMOD 2003) as working code:

- the graph model — conflict graphs, state graphs, installation graphs,
  exposed variables, explainable states (:mod:`repro.core`);
- the abstract recovery procedure, the Recovery Invariant, and write
  graphs (:mod:`repro.core.recovery`, :mod:`repro.core.invariant`,
  :mod:`repro.core.write_graph`);
- the real recovery methods of §6 — logical, physical, physiological, and
  generalized LSN-based recovery — built on simulated disk, cache, and log
  substrates (:mod:`repro.methods`, :mod:`repro.storage`,
  :mod:`repro.cache`, :mod:`repro.logmgr`);
- a recoverable key-value engine and a B-tree whose page splits are logged
  with the paper's generalized multi-page operations (:mod:`repro.engine`,
  :mod:`repro.btree`);
- crash simulation and invariant-audit harnesses (:mod:`repro.sim`).

Quickstart::

    from repro import ConflictGraph, InstallationGraph, State, Var, assign, blind_write
    from repro import is_explainable

    A = assign("A", "x", Var("y") + 1)
    B = blind_write("B", "y", 2)
    conflict = ConflictGraph([A, B])
    installation = InstallationGraph(conflict)

See ``examples/quickstart.py`` for the full tour.
"""

from repro import core as _core

# The theory core is re-exported whole: one list of public names.
globals().update({name: getattr(_core, name) for name in _core.__all__})

__version__ = "1.0.0"

__all__ = [*_core.__all__, "__version__"]
