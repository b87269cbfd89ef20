"""Compress word embeddings into discrete compositional codes plus codebooks.

A trained model assigns every word M small integers (one per codebook);
summing the selected codewords reconstructs the embedding. Training uses a
Gumbel-softmax autoencoder written directly in numpy, with analytic
gradients and Adam.
"""

from .analysis import (
    balance_table,
    neighbor_overlap,
    pq_baseline,
    reconstruction_report,
    shared_code_groups,
    size_report,
)
from .codec import (
    CodeMatrix,
    Codebooks,
    export_codes,
    pack_codes,
    read_code_file,
    read_codebook_file,
    reconstruct_all,
    unpack_codes,
    write_code_file,
    write_codebook_file,
)
from .embeddings import (
    EmbeddingMatrix,
    read_binary_matrix,
    read_text_embeddings,
    write_binary_matrix,
    write_text_embeddings,
)
from .errors import CodecompError, ConfigError, DataError, NumericError
from .model import (
    AdamState,
    ForwardTrace,
    ModelParams,
    SchemeConfig,
    adam_step,
    backward,
    encode,
    forward,
    init_params,
    new_adam_state,
    softmax,
)
from .synthetic import synthetic_embeddings
from .trainer import (
    TrainConfig,
    TrainReport,
    load_checkpoint,
    save_checkpoint,
    split_validation,
    train,
)

__version__ = "0.1.0"
