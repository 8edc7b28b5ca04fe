"""Rule-based static analysis over Python ``ast`` — the ``repro lint`` gate.

Only the bug classes that no gate which runs the model catches have a
rule here (``docs/lint_audit.md`` is the measurement, ``docs/lint.md``
the catalogue).  A finding can be silenced only by an inline suppression
that *states a reason* (``# repro-lint: allow(<rule>) -- <why this is
safe here>``), and an unused suppression is itself a finding, so the
suppression inventory can never rot.
"""

from repro.analysis.core import Finding, analyze_file, analyze_paths
from repro.analysis.rules import all_rules

__all__ = ["Finding", "all_rules", "analyze_file", "analyze_paths"]
