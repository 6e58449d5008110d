"""tagrec: match numerals in financial text to XBRL taxonomy tags.

The pipeline has three stages.  A generator backend produces a descriptive
tag document for each target numeral; an embedding index over the taxonomy
returns the Top-k most cosine-similar tag documents; and a multi-round
tournament presents random groups of those candidates to a listwise ranker,
accumulating frequency votes until one tag wins.  Deterministic offline
backends (hash embedder, oracle rankers) make every stage reproducible and
testable without any remote model.
"""

from .corpus import NumeralRecord, TagDocument, TaxonomyCorpus, load_dataset, \
    load_taxonomy
from .errors import BackendError, CacheConflictError, CacheEntryError, \
    ConfigError, CorpusError, MissingGenerationError, TagRecError, \
    UnparseableReplyError
from .evaluation import EvalReport, PredictionSet, SweepAxis, \
    evaluate_predictions, hits_at_1, macro_metrics
from .prompting import RankingReply, assemble_generation_input, \
    build_rerank_prompt, parse_ranking_reply
from .rerank import Ordering, RerankConfig, RerankTrace, VoteMode, VoteTally, \
    partition_into_groups, rank_group, rerank_record
from .retrieval import Candidate, VectorIndex, build_index, retrieve, \
    top_k
from .sim import OracleKind, OracleRanker, OracleSpec, oracle_rank, \
    recovery_experiment

__version__ = "0.1.0"
