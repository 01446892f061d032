"""semtagger: an LSTM-CRF semantic tagger built on numpy.

The pieces compose bottom-up: `crf` holds the linear-chain CRF layer (log Z,
the NLL and its analytic gradient from one forward-backward pass, Viterbi),
`encoder` the unidirectional LSTM with manual backpropagation, `optim`
SGD/Adam plus the step-decay schedule, `data` the TSV corpus and
contextual-embedding loaders, `trainer` the seeded training loop and
experiment grid, and `cli` the command line front end.
"""

from .crf import (CrfGradients, CrfParams, NEG_INF, init_crf_params,
                  log_partition, nll_and_grad, nll_loss, score_path,
                  viterbi_decode)
from .data import (EmbeddedSentence, Sentence, TagSet, UNK_ID, UNK_TOKEN,
                   Vocab, build_vocab, encode, encode_tags,
                   load_context_embeddings, load_meta_tags, parse_corpus,
                   read_context_embeddings, read_corpus,
                   serialize_context_embeddings, serialize_corpus, split)
from .encoder import (EncoderParams, EncoderTape, backward, forward,
                      init_params)
from .errors import (CheckpointError, ConfigError, DimensionError,
                     DivergenceError, EmptyCorpusError, EmptySequenceError,
                     ParseError, SemtaggerError, UnknownTagError)
from .model import (MODE_EXTERNAL, MODE_INTERNAL, TaggerModel,
                    load_checkpoint, save_checkpoint, tag_tokens, tag_vectors)
from .optim import (OPTIMIZERS, OptimState, adam_update, clip_grads,
                    init_optim_state, lr_at, sgd_update)
from .trainer import (EpochMetrics, ExperimentConfig, build_model,
                      encode_corpus, encode_embedded, evaluate, export_curves,
                      fit, load_experiment_configs, run_experiment,
                      sentence_loss_and_grads, experiment_grid, train_epoch)

__version__ = "0.1.0"
