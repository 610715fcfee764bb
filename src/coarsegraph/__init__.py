"""Structural graph toolbox: tree-decompositions with small adhesion, tight
separations, fat minors, quasi-isometry certificates, and a verified
construction that flattens a decomposed host into a planar graph."""

from __future__ import annotations

from .construction import (
    BOUNDED_TW,
    FINITE,
    PLANAR,
    Bounds,
    ConstructionOutput,
    InstanceBundle,
    VerificationReport,
    build_H,
    bundle_from_dict,
    bundle_to_dict,
    classify_torsos,
    output_to_dict,
    refine_planar_torso,
    report_to_dict,
    treewidth_at_most,
    tw_torso_attachment,
    verify_output,
)
from .corpus import CorpusInstance, corpus, symmetric_instances
from .errors import (
    CapacityError,
    ClassificationError,
    CompositionError,
    ContractViolationError,
    EmptySetError,
    GeneratorError,
    GraphToolError,
    MarkerError,
    ParseError,
    PlanarityContradictionError,
    StructuralError,
    UnknownVertexError,
)
from .fatminor import (
    FatMinorModel,
    FatVerifyReport,
    SearchOutcome,
    asymptotic_probe,
    check_model_structure,
    model_from_dict,
    model_to_dict,
    search_fat_minor,
    verify_fat_model,
)
from .generators import GeneratedGraph, GeneratorSpec, cayley_ball, generate
from .graph import (
    Graph,
    components,
    distance,
    format_edge_list,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    relabel,
    to_dot,
)
from .planarity import PlanarityVerdict, SubdivisionWitness, find_subdivision, is_planar
from .qi import (
    QuasiIsometryCertificate,
    certificate_to_dict,
    make_certificate,
    qi_compose,
    qi_verify,
    tightest_certificate,
    tightest_constants,
)
from .separations import (
    Separation,
    enumerate_tight,
    fully_attached_components,
    is_tight,
    separation_from_dict,
    separation_to_dict,
)
from .symmetry import automorphisms, edge_orbits, orbits, vertex_orbits
from .treedecomp import (
    TreeDecomposition,
    adhesion,
    adhesion_sets,
    edge_separation,
    exact_treewidth,
    heuristic_td,
    td_from_dict,
    td_to_dict,
    torso,
    tree_center,
    validate,
    width,
)

__version__ = "0.1.0"
