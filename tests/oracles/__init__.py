"""Seed engines kept only as test oracles.

Each production engine in ``src/`` replaced a simpler seed implementation
and promises to reproduce it exactly: the same cluster hierarchy, the same
verdicts and bit-identical profile floats, the same flood statistics and
trees tie for tie.  The seed implementations live here, outside the
library, so the equivalence tests (and the benchmarks that cite them) can
keep comparing against them without a ``mode=`` knob in the public API:

* :mod:`oracles.cluster` — the seed heap ball and per-centre-ball
  clustering, the cluster-hierarchy replay engine and the merge-verifying
  cluster engine;
* :mod:`oracles.verification` — the per-pair stretch checks and the
  copy-and-remove Lemma 3 check;
* :mod:`oracles.distributed` — the dict-graph flood, routing tables,
  hardened flood and synchronizer diameter;
* :mod:`oracles.greedy` — the value-cache distance oracle;
* :mod:`oracles.order` — the ``(weight, repr(u), repr(v))`` sort of the
  greedy examination order;
* :mod:`oracles.service` — the canonical spanner edge list, ``repr`` per
  edge endpoint.

``tests/conftest.py`` and ``benchmarks/conftest.py`` put ``tests/`` on
``sys.path``, so both suites import them as ``oracles.<layer>``.
"""
