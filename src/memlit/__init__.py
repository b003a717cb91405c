"""Exhaustive litmus-test checking under SC, x86-TSO, and C++11 atomics."""

from .axiomatic import (
    AXIOMS,
    CandidateExecution,
    ExecutionJudgment,
    check_axioms,
    enumerate_cxx11,
)
from .dot import execution_dot, trace_dot
from .dsl import (
    ParseDiagnostic,
    ParseError,
    SourceSpan,
    format_instruction,
    parse_expectations,
    parse_litmus,
    print_litmus,
)
from .model import (
    Assertion,
    Diagnostic,
    Event,
    EventKind,
    Instruction,
    Kind,
    MemoryOrder,
    Outcome,
    OutcomeSet,
    Program,
    ResourceLimitError,
    TraceStep,
    Verdict,
    eval_assertion,
    force_seq_cst,
    validate,
    with_fences_after_stores,
)
from .operational import enumerate_sc, enumerate_tso

__version__ = "0.1.0"

__all__ = [
    "AXIOMS",
    "Assertion",
    "CandidateExecution",
    "Diagnostic",
    "Event",
    "EventKind",
    "ExecutionJudgment",
    "Instruction",
    "Kind",
    "MemoryOrder",
    "Outcome",
    "OutcomeSet",
    "ParseDiagnostic",
    "ParseError",
    "Program",
    "ResourceLimitError",
    "SourceSpan",
    "TraceStep",
    "Verdict",
    "check_axioms",
    "enumerate_cxx11",
    "enumerate_sc",
    "enumerate_tso",
    "eval_assertion",
    "execution_dot",
    "force_seq_cst",
    "format_instruction",
    "parse_expectations",
    "parse_litmus",
    "print_litmus",
    "trace_dot",
    "validate",
    "with_fences_after_stores",
]
