"""DSQ: Database-Supported Web Queries (paper Sections 1 and 2).

DSQ "uses information stored in the database to enhance and explain Web
searches": given a keyword phrase, it correlates the phrase with terms
drawn from database columns by counting Web co-occurrence — and can chase
pairs of terms from different tables to surface triples (the paper's
state/movie/"scuba diving" example).

The implementation is deliberately built *on top of* WSQ: every
correlation is a WSQ SQL query over ``WebCount``, so DSQ inherits
asynchronous iteration's concurrency for free.
"""

from repro.dsq.session import Correlation, DsqReport, DsqSession

__all__ = ["Correlation", "DsqReport", "DsqSession"]
