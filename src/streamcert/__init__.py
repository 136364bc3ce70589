"""streamcert: prover/verifier schemes for annotated data streams.

A space-bounded streaming verifier checks answers to point queries,
frequency moments, set-disjointness, and graph queries on sparse streams
using annotation from an untrusted prover, with bit-accurate annotation
(hcost) and verifier-space (vcost) accounting."""

from .field import DEFAULT_FIELD, Field, M61, is_prime, next_prime
from .graphs import (count_triangles_run, verify_connectivity,
                     verify_non_bipartite, verify_perfect_matching)
from .harness import (RunConfig, adversary, cost_sweep, run_scheme,
                      soundness_trials, synthetic_stream)
from .moments import (disj_online_run, disj_prescient_run, fk_ama_mode,
                      fk_footprint_mode, fk_online_multi, fk_online_run,
                      fk_prescient_run, hamming_run, inner_product_run,
                      multiindex_run, subset_run)
from .pointqueries import heavyhitters_run, pq_run, selection_run
from .protocol import (ConfigError, CostReport, Outcome, RelaxedOutcome,
                       RunResult)
from .purity import (ama_injection_run, injection_run, subf2_run,
                     subinjection_run)
from .streams import (BucketedUpdate, PairwiseHash, StreamMeta, StreamUpdate,
                      compute_meta, dyadic_decompose, find_perfect_hash)
from .sumcheck import DenseParams, DenseProof
