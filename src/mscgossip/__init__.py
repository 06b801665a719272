"""MSCs, path expressions, communicating machines, and the gossip protocol."""

from .msc import (
    BOTTOM,
    TOP,
    ExtendedMsc,
    Msc,
    MscError,
    SystemSignature,
    causal_leq,
    causal_lt,
    is_valid,
    linearize,
    mirror_msc,
    validate_msc,
)
from .cfm import (
    BudgetExhausted,
    Cfm,
    CfmError,
    LazyCfm,
    Run,
    Transition,
    accepts,
    attach_annotation,
    detach_annotation,
    find_accepting_run,
    is_deterministic,
    mirror_cfm,
    oracle_accepts,
    product,
    relabel,
    universal_cfm,
    validate_run,
)
from .cli import CorpusSpec, RunReport, dispatch, generate_corpus
from .constructions import (
    AnnotationCfm,
    build_fa_label_cfm,
    build_first_label_cfm,
    build_fixpoint_cfm,
    build_gossip_cfm,
    build_last_label_cfm,
    build_preorder_cfm,
    oracle_gossip_annotation,
    reachable_state_report,
)
from .corpus import enumerate_mscs, random_corpus, random_msc
from .impossibility import (
    FamilyParams,
    RefutationResult,
    build_family_msc,
    naive_gossip_cfm,
    refute_deterministic,
)
from .paths import (
    EPS,
    PLUS,
    STAR,
    EventPreorder,
    LabelTest,
    Msg,
    PathError,
    PathExpr,
    Step,
    StarStep,
    comp,
    eval_path,
    f_pair,
    first,
    format_path,
    gossip_paths,
    gossip_paths_between,
    last,
    parse_path,
    preorder_at,
)
from .tl import (
    Atom,
    Co,
    Since,
    TlError,
    Until,
    check_translation,
    compile_since,
    compile_tl,
    eval_tl,
    expand_derived,
    format_tl,
    parse_tl,
)

__version__ = "0.1.0"
