"""OpenACC-style directive layer.

A Python rendering of the OpenACC 2.0 constructs the paper uses:

* **data management** — structured ``data`` regions, dynamic
  ``enter data``/``exit data`` lifetimes (the OpenACC 2.0 feature the paper
  adopts for RTM's forward/backward phase swap), ``update host/device``
  (full or partial/ghost-node), ``present``/``create``/``copyin``/
  ``copyout`` clauses with reference-counted present-table semantics;
* **compute constructs** — ``kernels`` and ``parallel`` with
  ``loop gang/worker/vector``, ``collapse``, ``independent`` scheduling
  clauses and ``async``/``wait`` queues;
* **compiler personas** — PGI 13.7/14.3/14.6 and CRAY 8.2.6 lower the same
  directives differently (kernels- vs parallel-preference, gridification
  heuristics, inlining support, auto-async), reproducing the paper's
  compiler findings.

The runtime executes the *real* NumPy kernel a construct wraps, then charges
the modelled device time — numerics are bit-identical to the host path while
timing follows :mod:`repro.gpusim`.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "clauses": ("LoopSchedule", "CompileFlags", "IneffectiveDirectiveWarning"),
    "minfo": ("minfo",),
    "compiler": ("CompilerPersona", "PGI_13_7", "PGI_14_3", "PGI_14_6", "CRAY_8_2_6", "COMPILERS"),
    "parser": ("Directive", "parse_directive", "apply_directive"),
    "runtime": ("Runtime", "PresentEntry"),
})
