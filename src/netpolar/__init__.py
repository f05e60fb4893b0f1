"""Polarization measurement on node- and edge-weighted networks."""

from .alpha_bounds import (
    AlphaInterval,
    admissible_interval,
    alpha_lower,
    alpha_upper,
    f_eval,
    lemma1_witness,
    v_eval,
)
from .axioms import (
    AxiomReport,
    AxiomScenario,
    AxiomVerdict,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    run_suite,
)
from .builders import (
    MassPoints,
    PreferenceProfile,
    VoteMatrix,
    build_complete_uniform,
    build_cosponsorship,
    build_lattice,
    build_line,
    build_parties,
    build_preference_kemeny,
    build_representatives,
    build_vote_hypercube,
    kemeny_distance,
    load_mass_points_csv,
    load_preferences_csv,
    load_votes_csv,
    party_positions,
)
from .extremal import (
    ExtremalReport,
    bipolar_distribution,
    counterexample_search,
    diameter_dominance_check,
    merge_reduction,
    verify_bipolar_max,
)
from .graph import (
    DistanceMatrix,
    Network,
    average_path_length,
    delete_edge,
    delete_node,
    geodesic_distances,
    network_from_dict,
    network_to_dict,
    scale_masses,
    validate_network,
)
from .measures import (
    MeasureParams,
    MeasureResult,
    bipolar_maximum_value,
    normalized_polarization,
    polarization,
    polarization_naive_oracle,
)

__version__ = "0.1.0"
