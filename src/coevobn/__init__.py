"""Bayesian network structure learning by cooperative coevolution.

Core pieces: discrete network representation and sampling (bayesnet),
the decomposable Bayesian score with an independent sequential oracle
(scoring), the two-species DAG encoding (encoding), the coevolutionary
engine and its operators (evolution), K2 and brute-force oracles
(baselines), and the experiment harness plus CLI (harness, cli).
"""

from .baselines import (
    K2Config,
    count_dags,
    enumerate_dags,
    exhaustive_best,
    k2_learn,
    score_all_dags,
)
from .bayesnet import (
    BayesianNetwork,
    Dag,
    Dataset,
    Variable,
    ancestral_sample,
    load_dataset,
    load_network,
    load_structure,
    random_network,
    save_dataset,
    save_network,
    save_structure,
)
from .encoding import (
    combine,
    decode,
    encode_dag,
    triangular_index,
    triangular_size,
)
from .errors import (
    CoevoBnError,
    EmptyDataError,
    EncodingError,
    EngineError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .evolution import (
    BestSolution,
    ConvergenceTrace,
    EvolutionState,
    GaConfig,
    bit_flip_mutation,
    cycle_crossover,
    elitist_replace,
    evaluate,
    evolve,
    init_binary_pop,
    init_permutation_pop,
    swap_mutation,
    tournament_select,
    trace_csv,
    two_point_crossover,
)
from .harness import (
    ExperimentConfig,
    derive_seed,
    run_comparison,
    score_structure,
    welch_one_tailed_t,
)
from .scoring import (
    LocalScoreCache,
    bde_log_score,
    count_stats,
    fit_network,
    local_log_score,
    prequential_log_score,
)
