"""Named entity disambiguation with verbalized knowledge-graph context.

The pipeline: a :class:`~kgned.kg.TripleStore` serves ordered triples and
labels around candidate entities;
:meth:`~kgned.data.EncodingPipeline.encode_pair` verbalizes a candidate's
triples once, keeps the longest prefix of whole triples that fits the
token budget, and lays out sentence, surface form and context as one
segmented token sequence; :func:`~kgned.model.score` runs the
:class:`~kgned.model.Classifier` over such inputs to give the probability
that each candidate matches the mention; and :func:`~kgned.model.predict`
takes the per-mention argmax as the linked entity.
"""

from .assembly import AssembledInput, Mention, Sentence, assemble, context_budget
from .candidates import (CandidateSet, LabelIndex, MODE_CONTAINS, MODE_EXACT,
                         build_index, lookup, normalize_label)
from .context import (ContextBundle, ContextConfig, VerbalizedTriple, build_context,
                      verbalize)
from .data import (DatasetError, EncodingPipeline, MentionExample, PairExample,
                   load_jsonl, save_jsonl, to_pairs, vocab_lines)
from .kg import (HOP_ONE, HOP_ONE_TWO, LabelRecord, ParseError, Triple, TripleStore,
                 load_store, save_store)
from .metrics import (ConfusionCounts, FlipReport, PRF, f1_score, flip_analysis,
                      inkb_accuracy, make_report, pair_confusion, prf, write_report)
from .model import (CheckpointError, Classifier, ModelConfig, Prediction, TrainConfig,
                    TrainingAborted, bce_loss, grad_check, load_checkpoint, predict,
                    save_checkpoint, score, train)
from .sparql import (EndpointError, FetchError, FetchResult, ProtocolError,
                     fetch_many, fetch_remote)
from .tokenizer import (CLS_ID, PAD_ID, SEP_ID, UNK_ID, Vocab, build_vocab,
                        load_vocab, save_vocab, tokenize)

__version__ = "0.1.0"

__all__ = [
    "AssembledInput", "Mention", "Sentence", "assemble", "context_budget",
    "CandidateSet", "LabelIndex", "MODE_CONTAINS", "MODE_EXACT", "build_index",
    "lookup", "normalize_label",
    "ContextBundle", "ContextConfig", "VerbalizedTriple", "build_context", "verbalize",
    "DatasetError", "EncodingPipeline", "MentionExample", "PairExample",
    "load_jsonl", "save_jsonl", "to_pairs", "vocab_lines",
    "HOP_ONE", "HOP_ONE_TWO", "LabelRecord", "ParseError", "Triple", "TripleStore",
    "load_store", "save_store",
    "ConfusionCounts", "FlipReport", "PRF", "f1_score", "flip_analysis",
    "inkb_accuracy", "make_report", "pair_confusion", "prf", "write_report",
    "CheckpointError", "Classifier", "ModelConfig", "Prediction", "TrainConfig",
    "TrainingAborted", "bce_loss", "grad_check", "load_checkpoint", "predict",
    "save_checkpoint", "score", "train",
    "EndpointError", "FetchError", "FetchResult", "ProtocolError",
    "fetch_many", "fetch_remote",
    "CLS_ID", "PAD_ID", "SEP_ID", "UNK_ID", "Vocab", "build_vocab",
    "load_vocab", "save_vocab", "tokenize",
    "__version__",
]
