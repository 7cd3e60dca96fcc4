"""Desk-scale lab for dual-pathway multimodal graph learning."""

__version__ = "0.1.0"   # set before the submodules import it

from .errors import (ConfigError, ContractError, DatasetError, MagsimError,
                     ShapeError, TapeError)
from .graph import (CsrMatrix, Mag, ModalitySpec, SyntheticSpec,
                    corrupt_modality, generate, inject_noise, load,
                    measure_alignment, measure_neighborhood_noise, save)
from .tensor import AdamState, Tape, Tensor, adam_step
from .theory import SnrParams, crossover, mc_snr_post, snr_int, snr_post, \
    starvation_bound, tau

