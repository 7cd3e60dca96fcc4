"""Desk-scale lab for dual-pathway multimodal graph learning."""

__version__ = "0.1.0"   # set before the submodules import it

from .errors import (ConfigError, ContractError, DatasetError, MagsimError,
                     ShapeError, TapeError)
from .graph import (CsrMatrix, Mag, ModalitySpec, SyntheticSpec, calibrate,
                    corrupt_modality, generate, inject_noise, load, save)
from .tensor import AdamState, Tape, Tensor, adam_step
from .theory import SnrParams, crossover, mc_snr_post, snr_int, snr_post, \
    starvation_bound, tau

