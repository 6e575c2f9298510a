"""Federated continual learning with distillation, simulated on one desk.

The package couples a tiny numpy neural-network engine with a synchronous
FedAvg protocol and the "learning without forgetting" style losses that
use the client's previous model and the current server model as frozen
teachers.  Everything is seeded and deterministic; see ``flwf.federation``
for the round protocol and ``flwf.config`` for ready-made scenarios.
"""

from .config import (ClientConfig, ConfigError, CsvSource, ScenarioConfig,
                     SyntheticSource, default_mlp_layers, load_config, parse_config,
                     preset, save_config, uci_cnn_layers)
from .continual import (StrategyPolicy, TaskSequence, TaskSpec, compose_training_batch,
                        current_task, normalized_label_entropy, select_loss_mode,
                        update_exemplars)
from .datasets import (DatasetPool, PoolExhaustedError, draw_round_data, draw_test_set,
                       generate_synthetic, load_csv, save_csv)
from .federation import (ClientRuntime, Run, client_update, fedavg, plan_run,
                         run_experiment, run_round, start_run, stream_seed)
from .losses import (LossSpec, classification_loss, combined_loss,
                     combined_loss_grad, distillation_loss, log_softmax, softmax,
                     temperature_scaled_probs)
from .metrics import MetricsLedger, RoundRecord, predict
from .network import (LayerConfig, ModelParams, ShapeMismatchError, backward, forward,
                      infer_shapes, init_params, loss_on_batch, params_digest, sgd_step,
                      train_local)

__version__ = "0.1.0"

__all__ = [
    "ClientConfig", "ClientRuntime", "ConfigError", "CsvSource", "DatasetPool",
    "LayerConfig", "LossSpec",
    "MetricsLedger", "ModelParams", "PoolExhaustedError",
    "RoundRecord", "Run", "ScenarioConfig",
    "ShapeMismatchError", "StrategyPolicy", "SyntheticSource", "TaskSequence",
    "TaskSpec", "backward", "classification_loss",
    "client_update", "combined_loss", "combined_loss_grad",
    "compose_training_batch", "current_task", "default_mlp_layers",
    "distillation_loss", "draw_round_data", "draw_test_set", "fedavg",
    "forward", "generate_synthetic", "infer_shapes", "init_params",
    "load_config", "load_csv", "log_softmax", "loss_on_batch",
    "normalized_label_entropy", "params_digest", "parse_config", "plan_run", "predict",
    "preset", "run_experiment", "run_round", "save_config", "save_csv",
    "select_loss_mode", "sgd_step", "softmax", "start_run", "stream_seed",
    "temperature_scaled_probs", "train_local", "uci_cnn_layers",
    "update_exemplars",
]
