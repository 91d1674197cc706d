"""Seed engines kept only as test oracles.

Each production engine in ``src/`` replaced a simpler seed implementation
and promises to reproduce it exactly: the same verdicts and bit-identical
profile floats, the same flood statistics and trees tie for tie.  The seed
implementations live here, outside the library, so the equivalence tests
(and the benchmarks that cite them) can keep comparing against them without
a ``mode=`` knob in the public API:

* :mod:`oracles.verification` — the per-pair stretch checks and the
  copy-and-remove Lemma 3 check;
* :mod:`oracles.distributed` — the dict-graph flood, routing tables and
  synchronizer diameter;
* :mod:`oracles.greedy` — the value-cache distance oracle;
* :mod:`oracles.order` — the ``(weight, repr(u), repr(v))`` sort of the
  greedy examination order;
* :mod:`oracles.service` — the canonical spanner edge list, ``repr`` per
  edge endpoint.

Other references left the library because nothing but the tests called
them:

* :mod:`oracles.graph` — Prim's MST, the spanning-tree/forest/tree checks,
  BFS hop distances, DFS order, the hop ball, the seed heap ball the cached
  oracle's ball is checked against, and the networkx bridge (the only place
  networkx is imported);
* :mod:`oracles.spanner` — the shortest-path-tree baseline and the MST
  weight shares of a spanner;
* :mod:`oracles.metric` — nearest-net-point assignment and the check that
  the streamed pair order equals the materialized sorted edges;
* :mod:`oracles.queries` — the per-query reference search on vertices.

``tests/conftest.py`` and ``benchmarks/conftest.py`` put ``tests/`` on
``sys.path``, so both suites import them as ``oracles.<layer>``.
"""
