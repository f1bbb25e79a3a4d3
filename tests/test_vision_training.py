"""Training-loop tests: the detector actually learns on synthetic data."""

import numpy as np
import pytest

from repro.datasets import make_openimages_like
from repro.datasets.base import DetectionDataset
from repro.evaluation import evaluate_map
from repro.quantization import QATWeightQuantizer
from repro.vision import SSDDetector, tiny_spec
from repro.vision.training import (
    Trainer,
    TrainingConfig,
    paper_finetune_config,
    paper_pretrain_config,
)


@pytest.fixture(scope="module")
def small_dataset():
    return make_openimages_like(32, seed=0)


class TestConfigs:
    def test_paper_pretrain(self):
        cfg = paper_pretrain_config()
        assert cfg.learning_rate == 8e-4
        assert cfg.decay_rate == 0.95
        assert cfg.decay_epochs == 24

    def test_paper_finetune(self):
        cfg = paper_finetune_config()
        assert cfg.learning_rate == 1e-4
        assert cfg.decay_epochs == 10


class TestTrainer:
    def test_loss_decreases(self, small_dataset):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        cfg = TrainingConfig(epochs=4, batch_size=8, augment_prob=0.0, seed=0)
        log = Trainer(det, cfg).fit(small_dataset)
        assert len(log.epoch_losses) == 4
        assert log.epoch_losses[-1] < log.epoch_losses[0] * 0.7

    def test_training_improves_map(self, small_dataset):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))

        def measure():
            preds = []
            for start in range(0, len(small_dataset), 16):
                imgs = np.stack(
                    [
                        small_dataset[i].image
                        for i in range(start, min(start + 16, len(small_dataset)))
                    ]
                )
                preds.extend(det.predict(imgs, score_threshold=0.2))
            return evaluate_map(
                preds,
                [d.boxes for d in small_dataset],
                [d.labels for d in small_dataset],
            ).map_score

        before = measure()
        # Enough steps to clearly lift training-set mAP off the floor;
        # augmentation off so the model can overfit the small set quickly.
        cfg = TrainingConfig(epochs=14, batch_size=4, augment_prob=0.0, seed=1)
        Trainer(det, cfg).fit(small_dataset)
        after = measure()
        assert after > before + 0.05  # training-set mAP clearly improves

    def test_qat_training_runs(self, small_dataset):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        cfg = TrainingConfig(epochs=1, batch_size=8, augment_prob=0.0)
        log = Trainer(det, cfg, qat=QATWeightQuantizer()).fit(small_dataset)
        assert np.isfinite(log.final_loss)

    def test_model_in_eval_mode_after_fit(self, small_dataset):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        Trainer(det, TrainingConfig(epochs=1, batch_size=16)).fit(small_dataset)
        assert not det.training

    def test_empty_dataset_rejected(self):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            Trainer(det, TrainingConfig(epochs=1)).fit(DetectionDataset([]))

    def test_zero_batch_size_rejected(self, small_dataset):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="batch_size"):
            Trainer(det, TrainingConfig(epochs=1, batch_size=0)).fit(small_dataset)

    def test_eval_mode_restored_when_step_raises(self, small_dataset, monkeypatch):
        det = SSDDetector(tiny_spec(0.5), rng=np.random.default_rng(0))

        def failing_step(*args, **kwargs):
            assert det.training
            raise RuntimeError("step failed")

        monkeypatch.setattr(det, "train_step", failing_step)
        with pytest.raises(RuntimeError, match="step failed"):
            Trainer(det, TrainingConfig(epochs=1, augment_prob=0.0)).fit(small_dataset)
        assert not det.training
