"""Structural entropy over encoding trees, with optimization and learning."""

from .errors import GraphParseError, InvariantViolation, SizeGuardExceeded
from .graph import (Graph, VertexSet, build_topk_graph, conductance_exact,
                    conductance_subset, cut_weight, load_graph,
                    load_similarity_csv, one_dim_entropy, shannon_entropy,
                    subset_volume)
from .tree import (EncodingTree, TreeNode, build_tree, codeword, deserialize,
                   from_partition, refresh_stats, serialize, star_tree,
                   validate)
from .metrics import (InfoReport, ModuleFunction, compressing_info,
                      compressing_info_edgewise, decoding_info,
                      distribution_entropy, entropy_lower_bound, info_report,
                      module_entropy, structural_entropy,
                      structural_entropy_edgewise)
from .optimize import (OptimizeResult, TraceStep, brute_force_2d,
                       brute_force_kd, combine_apply, compressing_ratio_k,
                       cross_weight, decoding_info_k, is_compressible,
                       merge_delta, minimize_2d, minimize_kd, parse_trace,
                       replay_trace)
from .learning import (AbstractionTree, DataSpace, FeatureCatalog, FeatureSet,
                       InsertReport, KnowledgeTree, abstraction_tree,
                       build_data_space, choose_abstraction,
                       classify_by_abstraction, flow_of_abstractions,
                       insert_point, knowledge_tree, least_common_abstraction)

__version__ = "0.1.0"
