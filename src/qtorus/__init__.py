"""Exact symbolic verification of q-exponential identities on a chain.

The package provides, bottom up:

- :mod:`qtorus.series` — integer Laurent series known mod a power of q
  (the truncated engine's result: compared and printed, never fed to
  arithmetic), and exact rational functions of q held over products of
  cyclotomic polynomials.
- :mod:`qtorus.algebra` — the quantum-torus algebra of a finite chain of
  sites, with adjacent generators commuting up to a fixed power of q; its
  coefficients are exact Laurent polynomials held as plain
  ``{q-exponent: int}`` dicts.
- :mod:`qtorus.qexp` — the coefficients c_k of the q-exponential's power
  series: their cyclotomic denominators, and their expansion mod a power
  of q by partition counts.
- :mod:`qtorus.words` — the rewriting layer's letters and words: words of
  q-exponential letters, verified local relations, and derivation scripts
  that are replayed step by step.
- :mod:`qtorus.verifier` — two verification engines: an exact engine for
  identities whose coefficients close in rational functions of q, and a
  certified truncated engine that reads a word of s-letters and
  enumerates, per monomial, the finite tuple set contributing below a
  q-adic precision.
- :mod:`qtorus.scripts` — the concrete derivation scripts and the seeded
  rewrite walk.
- :mod:`qtorus.catalog` / :mod:`qtorus.cli` — the named identity catalog
  and the ``qtorus`` command-line front end producing JSON reports.
"""

from .errors import (
    InfiniteSupport,
    InvalidParams,
    InvalidStep,
    KernelError,
    NoCertificate,
    NoMatch,
)
from .series import FactoredRational, LaurentSeries, cyclotomic
from .algebra import Element, monomial_label, phase_exponent
from .qexp import euler_denominator_factors
from .words import (
    DerivationScript,
    ExpLetter,
    Letter,
    Relation,
    ReplayResult,
    Step,
    Word,
    apply_step,
    expand_composites,
    parse_script,
    parse_word,
    render_script,
    render_word,
    replay,
)
from .verifier import (
    ProductCertificate,
    TupleCertificate,
    exact_window_map,
    product_coefficients,
    window_targets,
)
from .scripts import (
    braid_script,
    braid_translation_fwd,
    braid_translation_rev,
    random_walk,
    seven_term_script,
    sigma_commute_script,
    sigma_script1,
    sigma_script2,
    sigma_translation_fwd,
    sigma_translation_rev,
    structural_relations,
)
from .catalog import (
    MAX_PRECISION,
    MAX_SITES,
    MAX_WINDOW,
    Report,
    SCHEMA_VERSION,
    identity_names,
    list_identities,
    verify_identity,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "KernelError",
    "InvalidParams",
    "NoMatch",
    "InvalidStep",
    "NoCertificate",
    "InfiniteSupport",
    # series
    "LaurentSeries",
    "FactoredRational",
    "cyclotomic",
    # algebra
    "Element",
    "monomial_label",
    "phase_exponent",
    # q-exponential
    "euler_denominator_factors",
    # words
    "Letter",
    "ExpLetter",
    "Word",
    "Relation",
    "Step",
    "DerivationScript",
    "ReplayResult",
    "apply_step",
    "replay",
    "expand_composites",
    "parse_word",
    "render_word",
    "parse_script",
    "render_script",
    # verifier
    "ProductCertificate",
    "TupleCertificate",
    "product_coefficients",
    "window_targets",
    "exact_window_map",
    # scripts
    "braid_script",
    "sigma_script1",
    "sigma_script2",
    "sigma_commute_script",
    "seven_term_script",
    "braid_translation_fwd",
    "braid_translation_rev",
    "sigma_translation_fwd",
    "sigma_translation_rev",
    "structural_relations",
    "random_walk",
    # catalog
    "SCHEMA_VERSION",
    "MAX_SITES",
    "MAX_WINDOW",
    "MAX_PRECISION",
    "Report",
    "identity_names",
    "list_identities",
    "verify_identity",
]
