"""streamgraphs: certified streams, represented countable graphs, fueled
deciders, reduction gadgets and search solvers."""

from .streams import (pair, unpair, CertifiedStream, EventuallyConstant,
                      Periodic, Indicator, GeneratorBacked, StagedPairs,
                      exists_one, infinitely_often, eventually_always, limit,
                      zero_from, parse_stream)
from .graphs import (OMEGA, FinGraph, standard, disjoint_union,
                     connected_union, construction, isomorphic, OmegaCopies,
                     CertTree, CertForest, ForestGraph)
from .trees import (FiniteTree, FullBinary, SinglePath, DisjointTreeUnion,
                    string_code, string_decode)
from .spaces import (SpaceName, validate_prefix, validate_name, name_of,
                     truncate, gr_to_egr, f_convert, IotaTrace)
from .decide import (Embedding, Verdict, embeddings, fin_subgraph,
                     semidecide_s, decide_is_egr_noncomplete,
                     to_cert_forest, predicate_tf, wf2)
from .gadgets import (GadgetOutput, sigma1_gadget, sigma2_gadget,
                      forests_lift, acc_gadget, acc_decode, lim2_to_embR,
                      embR_decode, cycles_box, enuminf_encode,
                      enuminf_decode, CertifiedPiSet, sigma11_choice_gadget,
                      choice_decode)
from .search import (SolutionStream, find_s_finite, find_is_via_cn,
                     cn_by_stabilization, find_s_components, ray_follow,
                     emb_ray_r, restrict_to_connected, find_t3, find_f2k2)
from .problems import (Problem, ReductionHarness, LimitTower, LPO, LPO_N,
                       LIM, LIM2, CN, CCANTOR, CBAIRE, WF, oracle_call,
                       problem_by_name, compose, subgraph_presence_problem,
                       ray_embedding_problem, FINDS_RAY, path_choice_roundtrip)

__version__ = "0.1.0"
