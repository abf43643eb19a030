"""Machine verification of the spectral-entropy identities over graph corpora.

Three claim families are checked per graph, each read off a catalogue:

* ``identity.*``: the closed entropy expressions agree with the direct
  spectral route, for the quadratic entropy and for the Renyi and Daroczy
  entropies at every requested order;
* ``trace.*``: the power-sum identities that feed those closed forms
  (sum of signless Laplacian eigenvalues is 2m, and so on);
* ``bound.*``: the published upper and lower bounds of :data:`BOUNDS`,
  with their equality characterizations cross-checked in both directions
  where stated.

The first two read each kind's row of :data:`graphent.matrices.KINDS`:
an identity claim applies where its kinds' closed forms do, and a trace
claim where their matrices exist; the trace and square-sum invariants are
the row's.  Each bound shares the closed-form hypothesis of one kind.

Claims are evaluated as tables over a stack of graphs of one order, whose
edge counts may differ (:class:`graphent.matrices.EdgeStack`): :func:`claim_table`
solves each spectrum once per stack and reduces values, residuals,
witnesses, slacks and equality characterizations to a :class:`ClaimTable`
of status codes, member by claim, the type the audit returns too.  The
``check_*`` functions are a table of one.

Every claim produces a :class:`ClaimResult` with status ``pass``, ``fail``,
``not-applicable`` (hypothesis unmet), or ``equality-attained`` (the bound
is met within the equality band).  A NaN or infinite value on either side
of a comparison fails closed, and so does a member whose own eigensolve
raises, on every claim that reads that spectrum.  The cross-entropy order
inequalities are audited by :func:`audit_table` and reported, never
asserted, because desk evaluation produces explicit counterexamples to one
of them as stated; :func:`audit_theorem10` is a stack of one.

Corpora are described by compact strings: ``all:<n>`` sweeps every labeled
graph on 1..n vertices, ``trees:<n>`` every labeled tree on exactly n, and
``gnp:<n>,<p>,<count>`` draws seeded random graphs; verify and audit run
one loop over their stacks (:func:`_sweep`).  Reports are deterministic:
reruns, and runs with different worker counts, produce byte-identical
serializations.
"""

from .catalogue import CHECK_NAMES, ClaimResult, status_summary
from .corpus import AuditReport, CorpusSpec, VerificationReport, audit_corpus, verify_corpus
from .scan import SCAN_FAMILIES, ExtremalScan, measure_stack, scan_extremal
from .tables import audit_table, audit_theorem10, claim_table
